package repro

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestNoDeadCode fails on every top-level function, method, type, var or
// const of the root module that no real root reaches, and names each one
// by file and line. Reachability, not "has one use": a helper that only
// dead code calls is dead too. Tests are not roots, so code that only tests
// use is dead; a test fixture belongs in the package's _test.go files.
//
// Roots are main and init functions, blank declarations, every declaration
// under examples/ and every file of the bench module (tests included: the
// benchmark compiles against whatever it names), the adds facade's
// allowlist below, and methods called through interfaces (see liveMethods).
//
// The walk type-checks both modules with go/types. It reads the standard
// library from GOROOT's sources, declarations only, so it needs neither
// the go command nor export data nor a download, and runs the same under
// -race.
func TestNoDeadCode(t *testing.T) {
	got, err := findDead(deadcodeConfig{
		modules:  map[string]string{"repro": ".", "repro/bench": "bench"},
		rootDirs: []string{"examples", "bench"},
		allow:    facadeAllow,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range got {
		t.Error(d)
	}
}

// facadeAllow keeps public API of the adds facade that nothing in either
// module reaches. Every entry gives its reason; an entry that names nothing,
// or that the program reaches without it, fails the gate.
var facadeAllow = map[string]string{
	"repro/adds.WithTracer": "README's tracing section documents it as the way to trace one analysis",
	"repro/adds.NewTracer":  "builds the Tracer WithTracer takes; callers outside the module cannot import internal/obs",
}

// TestDeadcodeFixture pins the walk's rules on testdata/deadcode: exactly
// these declarations and allowlist entries are reported.
func TestDeadcodeFixture(t *testing.T) {
	got, err := findDead(deadcodeConfig{
		modules:  map[string]string{"fixture": "testdata/deadcode"},
		rootDirs: []string{"testdata/deadcode/bench"},
		allow: map[string]string{
			"fixture/lib.Kept":    "public API",
			"fixture/lib.Missing": "names nothing",
			"fixture/lib.Reached": "reached without the entry",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist entry fixture/lib.Missing names no declaration",
		"allowlist entry fixture/lib.Reached is reachable without it",
		"testdata/deadcode/lib/lib.go:8: fixture/lib.Dead is unreachable",
		"testdata/deadcode/lib/lib.go:11: fixture/lib.helper is unreachable",
		"testdata/deadcode/lib/lib.go:19: fixture/lib.Name.Unused is unreachable",
		"testdata/deadcode/lib/lib.go:47: fixture/lib.unusedConst is unreachable",
		"testdata/deadcode/lib/lib.go:50: fixture/lib.Orphan is unreachable",
		"testdata/deadcode/lib/lib.go:52: fixture/lib.Orphan.String is unreachable",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findDead on the fixture:\ngot\n\t%s\nwant\n\t%s",
			strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// deadcodeConfig says what to walk and where the roots are.
type deadcodeConfig struct {
	// modules maps each module path to its directory. A directory holding
	// another module's go.mod, testdata, and names starting with "." or "_"
	// are skipped, as the go command does.
	modules map[string]string
	// rootDirs are directories every declaration of which is a root; their
	// _test.go files are walked too.
	rootDirs []string
	// allow maps "importpath.Name" or "importpath.Type.Method" to the
	// reason the declaration stays although nothing reaches it.
	allow map[string]string
}

// dcDecl is one top-level declaration of a walked package.
type dcDecl struct {
	name string // "importpath.Name" or "importpath.Type.Method"
	pos  token.Position
	node ast.Node // the syntax whose references it makes
	obj  types.Object
	root bool
	live bool
}

// dcWalk holds the loaded packages and the reachability state.
type dcWalk struct {
	cfg     deadcodeConfig
	fset    *token.FileSet
	ctx     build.Context
	info    *types.Info
	pkgs    map[string]*types.Package // by import path, loading or loaded
	decls   []*dcDecl
	byObj   map[types.Object]*dcDecl
	ifaces  map[*types.Interface]bool
	seen    map[types.Type]bool
	pending []*dcDecl
}

// findDead walks cfg's modules and returns one line per allowlist entry
// that is unused or names nothing, sorted, then one per unreachable
// declaration, in file and line order.
func findDead(cfg deadcodeConfig) ([]string, error) {
	w := &dcWalk{
		cfg:  cfg,
		fset: token.NewFileSet(),
		ctx:  build.Default,
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs:  map[string]*types.Package{},
		byObj: map[types.Object]*dcDecl{},
	}
	// The standard library is read from source; without cgo its packages
	// need no C toolchain.
	w.ctx.CgoEnabled = false
	for mod, dir := range cfg.modules {
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			base := d.Name()
			if path != dir {
				if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			rel, _ := filepath.Rel(dir, path)
			_, err = w.load(strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."))
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	var out []string
	named := map[string]*dcDecl{}
	for _, d := range w.decls {
		named[d.name] = d
	}
	var allowed []*dcDecl
	for name := range cfg.allow {
		if d := named[name]; d == nil {
			out = append(out, fmt.Sprintf("allowlist entry %s names no declaration", name))
		} else {
			allowed = append(allowed, d)
		}
	}
	// An entry is unused when the roots and the other entries reach it.
	for _, skip := range allowed {
		w.reach(allowed, skip)
		if skip.live {
			out = append(out, fmt.Sprintf("allowlist entry %s is reachable without it", skip.name))
		}
	}
	sort.Strings(out)
	w.reach(allowed, nil)
	sort.Slice(w.decls, func(i, j int) bool {
		a, b := w.decls[i].pos, w.decls[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	for _, d := range w.decls {
		if !d.live {
			out = append(out, fmt.Sprintf("%s:%d: %s is unreachable", d.pos.Filename, d.pos.Line, d.name))
		}
	}
	return out, nil
}

// Import makes the walk the type checker's importer.
func (w *dcWalk) Import(path string) (*types.Package, error) { return w.load(path) }

// moduleDir maps an import path inside a walked module to its directory.
func (w *dcWalk) moduleDir(path string) (string, bool) {
	best, dir := "", ""
	for mod, mdir := range w.cfg.modules {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
			best, dir = mod, filepath.Join(mdir, strings.TrimPrefix(path, mod))
		}
	}
	return dir, best != ""
}

// load type-checks one package: a walked module's with full bodies and
// recorded declarations, any other (the standard library) from GOROOT's
// sources with declarations only. A standard-library path that GOROOT/src
// lacks is one of its vendored packages.
func (w *dcWalk) load(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	dir, inModule := w.moduleDir(path)
	if !inModule {
		dir = filepath.Join(w.ctx.GOROOT, "src", path)
		if _, err := os.Stat(dir); err != nil {
			path = "vendor/" + path
			dir = filepath.Join(w.ctx.GOROOT, "src", path)
		}
	}
	if p, ok := w.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	w.pkgs[path] = nil

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	withTests := inModule && w.isRootDir(dir)
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !withTests {
			continue
		}
		if ok, err := w.ctx.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(w.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f.Name.Name, "_test") {
			continue // an external test package; none is walked
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		if inModule {
			return nil, nil // a directory without a package
		}
		return nil, fmt.Errorf("no Go files for %s in %s", path, dir)
	}
	conf := types.Config{Importer: w, IgnoreFuncBodies: !inModule}
	info := w.info
	if !inModule {
		info = nil
	}
	pkg, err := conf.Check(path, w.fset, files, info)
	if err != nil {
		return nil, err
	}
	w.pkgs[path] = pkg
	if inModule {
		w.record(pkg, files, withTests)
	}
	return pkg, nil
}

func (w *dcWalk) isRootDir(dir string) bool {
	for _, r := range w.cfg.rootDirs {
		if rel, err := filepath.Rel(r, dir); err == nil && !strings.HasPrefix(rel, "..") {
			return true
		}
	}
	return false
}

// record adds the package's top-level declarations to the walk.
func (w *dcWalk) record(pkg *types.Package, files []*ast.File, root bool) {
	add := func(id *ast.Ident, recv string, node ast.Node, isRoot bool) {
		obj := w.info.Defs[id]
		name := pkg.Path() + "." + id.Name
		if recv != "" {
			name = pkg.Path() + "." + recv + "." + id.Name
		}
		d := &dcDecl{name: name, pos: w.fset.Position(id.Pos()), node: node, obj: obj,
			root: root || isRoot || id.Name == "_"}
		w.decls = append(w.decls, d)
		if obj != nil {
			w.byObj[obj] = d
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if decl.Recv != nil {
					recv = recvName(decl.Recv.List[0].Type)
				}
				entry := recv == "" && (decl.Name.Name == "init" ||
					decl.Name.Name == "main" && pkg.Name() == "main")
				add(decl.Name, recv, decl, entry)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "", spec, false)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, "", spec, false)
						}
					}
				}
			}
		}
	}
}

// recvName is the base type name of a method receiver.
func recvName(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// reach marks what the roots and the allowlisted declarations, except skip,
// reach.
func (w *dcWalk) reach(allowed []*dcDecl, skip *dcDecl) {
	w.ifaces = map[*types.Interface]bool{}
	w.seen = map[types.Type]bool{}
	for _, d := range w.decls {
		d.live = false
	}
	for _, d := range w.decls {
		if d.root {
			w.mark(d)
		}
	}
	for _, d := range allowed {
		if d != skip {
			w.mark(d)
		}
	}
	for {
		for len(w.pending) > 0 {
			d := w.pending[len(w.pending)-1]
			w.pending = w.pending[:len(w.pending)-1]
			w.scan(d)
		}
		w.liveMethods()
		if len(w.pending) == 0 {
			return
		}
	}
}

func (w *dcWalk) mark(d *dcDecl) {
	if d != nil && !d.live {
		d.live = true
		w.pending = append(w.pending, d)
	}
}

// markObj marks the declaration of obj, following instantiations back to
// the generic declaration.
func (w *dcWalk) markObj(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	w.mark(w.byObj[obj])
}

// scan marks every declaration d's syntax refers to, and collects the
// interfaces its expressions and referenced objects are typed with.
func (w *dcWalk) scan(d *dcDecl) {
	if d.obj != nil {
		w.collect(d.obj.Type())
	}
	ast.Inspect(d.node, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := w.info.Types[e]; ok {
			w.collect(tv.Type)
		}
		if id, ok := e.(*ast.Ident); ok {
			if obj := w.info.Uses[id]; obj != nil {
				w.markObj(obj)
				w.collect(obj.Type())
			}
		}
		return true
	})
}

// collect records the interface types t mentions: itself, its elements,
// its type arguments, and a signature's parameters and results. It stops at
// a named non-interface type's underlying type, which that type's own
// declaration accounts for.
func (w *dcWalk) collect(t types.Type) {
	if t == nil || w.seen[t] {
		return
	}
	w.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			w.ifaces[it] = true
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			w.collect(t.TypeArgs().At(i))
		}
	case *types.Interface:
		w.ifaces[t] = true
	case *types.Pointer:
		w.collect(t.Elem())
	case *types.Slice:
		w.collect(t.Elem())
	case *types.Array:
		w.collect(t.Elem())
	case *types.Chan:
		w.collect(t.Elem())
	case *types.Map:
		w.collect(t.Key())
		w.collect(t.Elem())
	case *types.Signature:
		w.collect(t.Params())
		w.collect(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			w.collect(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			w.collect(t.Field(i).Type())
		}
	default:
		if u := types.Unalias(t); u != t {
			w.collect(u)
		}
	}
}

// dynamicMethods are the methods the standard library finds by type
// assertion or reflection on values it holds as `any` or as a wider
// interface (fmt, errors, encoding/json, encoding, log/slog, and net/http's
// optional http.Flusher on a ResponseWriter), so no interface the program
// names accounts for them.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"LogValue": true, "Flush": true,
}

// liveMethods marks the methods of live named types that may be called
// without being named: those in dynamicMethods, and those that make the
// type (or a pointer to it) satisfy an interface that live code mentions.
// Methods promoted from embedded fields are found through the embedding
// type. A generic type is matched by method name alone.
func (w *dcWalk) liveMethods() {
	for _, d := range w.decls {
		tn, ok := d.obj.(*types.TypeName)
		if !ok || !d.live || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); dynamicMethods[m.Name()] {
				w.markObj(m)
			}
		}
		generic := named.TypeParams().Len() > 0
		for it := range w.ifaces {
			if it.NumMethods() == 0 || !generic && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
					if _, isFunc := obj.(*types.Func); isFunc {
						w.markObj(obj)
					}
				}
			}
		}
	}
}

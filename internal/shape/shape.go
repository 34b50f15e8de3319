// Package shape is the semantic model of ADDS declarations.
//
// It turns the syntactic TypeDecl of the front end into a queryable form:
// which dimension each recursive pointer field traverses, in which direction,
// which fields were declared together as a combined uniquely-forward group
// (Defs 4.7-4.8 of the paper), and which dimensions are independent
// (Def 4.9). The path matrix analysis, the validation pass, and the dynamic
// invariant checker all consult this model rather than the raw AST.
package shape

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/source/ast"
)

// Direction re-exports the AST direction for convenience.
type Direction = ast.Direction

// Direction values.
const (
	None            = ast.DirNone
	Unknown         = ast.DirUnknown
	Circular        = ast.DirCircular
	Backward        = ast.DirBackward
	Forward         = ast.DirForward
	UniquelyForward = ast.DirUniquelyForward
)

// DefaultDim is the implicit dimension used when a declaration names none
// (Section 3.3: "By default, a structure has one dimension D").
const DefaultDim = "D"

// Field describes one recursive pointer field of a type.
type Field struct {
	Name   string
	Target string    // name of the pointed-to record type
	Dir    Direction // Unknown if the declaration had no clause
	Dim    string    // dimension traversed; DefaultDim if none declared
	Group  int       // combined-declaration group id; -1 if declared alone
}

// Acyclic reports whether traversing this field can never revisit a node
// (Def 4.2 holds). True for forward and uniquely forward. It is also true
// for backward fields: by Def 4.5 a backward field retraces a forward
// dimension toward the origin, so repeated traversal reaches NULL.
func (f *Field) Acyclic() bool {
	switch f.Dir {
	case Forward, UniquelyForward, Backward:
		return true
	}
	return false
}

// Type is the shape model of one declared record type.
type Type struct {
	Name     string
	Dims     []string // at least one (DefaultDim if none declared)
	IntField []string // integer data fields, in declaration order
	Fields   []*Field // recursive pointer fields, in declaration order
	indep    map[[2]string]bool
	byName   map[string]*Field

	// alongOnce lazily indexes Fields by (direction, dimension); the
	// transfer function queries ForwardAlong/BackwardAlong in its hot path
	// and must not allocate there. Fields are immutable once the type is
	// published, so building the index once is safe.
	alongOnce sync.Once
	fwdAlong  map[string][]*Field
	bwdAlong  map[string][]*Field
}

func (t *Type) buildAlong() {
	t.fwdAlong = map[string][]*Field{}
	t.bwdAlong = map[string][]*Field{}
	for _, f := range t.Fields {
		switch f.Dir {
		case Forward, UniquelyForward:
			t.fwdAlong[f.Dim] = append(t.fwdAlong[f.Dim], f)
		case Backward:
			t.bwdAlong[f.Dim] = append(t.bwdAlong[f.Dim], f)
		}
	}
}

// Env is the set of shape models for a program, keyed by type name.
type Env struct {
	Types map[string]*Type

	// fpOnce/fp memoize Fingerprint. An Env is immutable once published
	// (Check and Stripped both build fresh instances), so computing the
	// digest once is safe.
	fpOnce sync.Once
	fp     string
}

// Field returns the named recursive pointer field, or nil.
func (t *Type) Field(name string) *Field { return t.byName[name] }

// HasIntField reports whether name is a declared integer field.
func (t *Type) HasIntField(name string) bool {
	for _, n := range t.IntField {
		if n == name {
			return true
		}
	}
	return false
}

// Independent reports whether dimensions a and b were declared independent
// ("where a || b"). Dimensions are dependent unless declared otherwise
// (Def 4.10); a dimension is never independent of itself.
func (t *Type) Independent(a, b string) bool {
	if a == b {
		return false
	}
	return t.indep[[2]string{a, b}] || t.indep[[2]string{b, a}]
}

// SameGroup reports whether fields f and g were declared together in one
// combined uniquely-forward clause (Def 4.7/4.8), e.g. left and right of
// PBinTree.
func (t *Type) SameGroup(f, g string) bool {
	ff, gf := t.byName[f], t.byName[g]
	if ff == nil || gf == nil || ff.Group < 0 {
		return false
	}
	return ff.Group == gf.Group
}

// GroupOf returns the names of every field sharing a combined clause with f,
// including f itself. A field declared alone yields just {f}.
func (t *Type) GroupOf(f string) []string {
	ff := t.byName[f]
	if ff == nil {
		return nil
	}
	if ff.Group < 0 {
		return []string{f}
	}
	var out []string
	for _, g := range t.Fields {
		if g.Group == ff.Group {
			out = append(out, g.Name)
		}
	}
	return out
}

// ForwardAlong returns the fields traversing dim in the forward or uniquely
// forward direction. The result is cached and must not be mutated.
func (t *Type) ForwardAlong(dim string) []*Field {
	t.alongOnce.Do(t.buildAlong)
	return t.fwdAlong[dim]
}

// BackwardAlong returns the fields traversing dim backward. The result is
// cached and must not be mutated.
func (t *Type) BackwardAlong(dim string) []*Field {
	t.alongOnce.Do(t.buildAlong)
	return t.bwdAlong[dim]
}

// BackwardPartner returns a backward field along the same dimension as the
// forward field f (used for the Def 4.6 f-then-b cycle rule), or nil.
func (t *Type) BackwardPartner(f string) *Field {
	ff := t.byName[f]
	if ff == nil {
		return nil
	}
	bs := t.BackwardAlong(ff.Dim)
	if len(bs) == 0 {
		return nil
	}
	return bs[0]
}

// ForwardPartners returns the uniquely-forward fields along the same
// dimension as the backward field b (inverse of BackwardPartner).
func (t *Type) ForwardPartners(b string) []*Field {
	bf := t.byName[b]
	if bf == nil {
		return nil
	}
	var out []*Field
	for _, f := range t.ForwardAlong(bf.Dim) {
		if f.Dir == UniquelyForward {
			out = append(out, f)
		}
	}
	return out
}

// String renders the model compactly for diagnostics.
func (t *Type) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s]", t.Name, strings.Join(t.Dims, ","))
	for _, f := range t.Fields {
		fmt.Fprintf(&b, " %s:%s/%s", f.Name, f.Dir, f.Dim)
		if f.Group >= 0 {
			fmt.Fprintf(&b, "(g%d)", f.Group)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Construction and well-formedness

// Problem is a well-formedness diagnostic for a declaration.
type Problem struct {
	Type string
	Msg  string
}

func (p Problem) Error() string { return fmt.Sprintf("type %s: %s", p.Type, p.Msg) }

// Build constructs the shape environment for a program and checks each
// declaration for well-formedness:
//
//   - every "along" dimension must be declared (or omitted, defaulting),
//   - a field may traverse only one dimension in one direction (enforced
//     syntactically), and each field name must be unique,
//   - a backward field requires a forward field along the same dimension
//     (Def 4.5),
//   - only uniquely forward clauses may declare combined groups,
//   - independence pairs must name declared, distinct dimensions,
//   - pointer fields must target declared record types.
func Build(prog *ast.Program) (*Env, []Problem) {
	env := &Env{Types: map[string]*Type{}}
	var probs []Problem
	bad := func(tn, format string, args ...any) {
		probs = append(probs, Problem{Type: tn, Msg: fmt.Sprintf(format, args...)})
	}

	declared := map[string]bool{}
	for _, td := range prog.Types {
		if declared[td.Name] {
			bad(td.Name, "redeclared type")
		}
		declared[td.Name] = true
	}

	for _, td := range prog.Types {
		t := &Type{
			Name:   td.Name,
			indep:  map[[2]string]bool{},
			byName: map[string]*Field{},
		}
		dims := map[string]bool{}
		for _, d := range td.Dims {
			if dims[d] {
				bad(td.Name, "dimension %s declared twice", d)
			}
			dims[d] = true
			t.Dims = append(t.Dims, d)
		}
		if len(t.Dims) == 0 {
			t.Dims = []string{DefaultDim}
			dims[DefaultDim] = true
		}
		for _, pr := range td.Indep {
			if pr[0] == pr[1] {
				bad(td.Name, "dimension %s declared independent of itself", pr[0])
				continue
			}
			for _, d := range pr {
				if !dims[d] {
					bad(td.Name, "independence clause names undeclared dimension %s", d)
				}
			}
			t.indep[pr] = true
		}

		group := 0
		for _, fd := range td.Fields {
			if !fd.Pointer {
				for _, n := range fd.Names {
					if t.HasIntField(n) || t.byName[n] != nil {
						bad(td.Name, "field %s redeclared", n)
					}
					t.IntField = append(t.IntField, n)
				}
				continue
			}
			if !declared[fd.TypeName] {
				bad(td.Name, "pointer field %s targets undeclared type %s",
					fd.Names[0], fd.TypeName)
			}
			dir := fd.Dir
			if dir == ast.DirNone {
				dir = Unknown
			}
			dim := fd.Dim
			if dim == "" {
				if len(td.Dims) == 1 {
					// A single declared dimension is unambiguous.
					dim = td.Dims[0]
				} else if len(td.Dims) == 0 {
					dim = DefaultDim
				} else if fd.Dir != ast.DirNone {
					bad(td.Name, "field %s has a direction but no dimension among %v",
						fd.Names[0], td.Dims)
					dim = td.Dims[0]
				} else {
					dim = td.Dims[0]
				}
			} else if !dims[dim] {
				bad(td.Name, "field %s traverses undeclared dimension %s",
					fd.Names[0], dim)
			}
			gid := -1
			if len(fd.Names) > 1 {
				if dir != UniquelyForward {
					bad(td.Name, "combined declaration of %v requires uniquely forward, got %s",
						fd.Names, dir)
				}
				gid = group
				group++
			}
			for _, n := range fd.Names {
				if t.byName[n] != nil || t.HasIntField(n) {
					bad(td.Name, "field %s redeclared", n)
					continue
				}
				f := &Field{Name: n, Target: fd.TypeName, Dir: dir, Dim: dim, Group: gid}
				t.Fields = append(t.Fields, f)
				t.byName[n] = f
			}
		}

		// Def 4.5: backward along d requires forward along d.
		for _, f := range t.Fields {
			if f.Dir == Backward && len(t.ForwardAlong(f.Dim)) == 0 {
				bad(td.Name, "field %s is backward along %s but no field is forward along %s (Def 4.5)",
					f.Name, f.Dim, f.Dim)
			}
		}
		env.Types[t.Name] = t
	}
	return env, probs
}

// MustBuild builds the environment and panics on any problem. For fixtures.
func MustBuild(prog *ast.Program) *Env {
	env, probs := Build(prog)
	if len(probs) > 0 {
		msgs := make([]string, len(probs))
		for i, p := range probs {
			msgs[i] = p.Error()
		}
		sort.Strings(msgs)
		panic("shape.MustBuild: " + strings.Join(msgs, "; "))
	}
	return env
}

// Type returns the model for a type name, or nil.
func (e *Env) Type(name string) *Type {
	if e == nil {
		return nil
	}
	return e.Types[name]
}

// Stripped returns a copy of the environment with every direction demoted to
// Unknown and every independence clause and group removed. This models the
// "classic" analysis that has no ADDS information (the paper's Section 3.1
// observation that CirL's default declaration "is equivalent to saying
// nothing at all").
func (e *Env) Stripped() *Env {
	out := &Env{Types: map[string]*Type{}}
	for name, t := range e.Types {
		nt := &Type{
			Name:     t.Name,
			Dims:     []string{DefaultDim},
			IntField: append([]string(nil), t.IntField...),
			indep:    map[[2]string]bool{},
			byName:   map[string]*Field{},
		}
		for _, f := range t.Fields {
			nf := &Field{Name: f.Name, Target: f.Target, Dir: Unknown, Dim: DefaultDim, Group: -1}
			nt.Fields = append(nt.Fields, nf)
			nt.byName[f.Name] = nf
		}
		out.Types[name] = nt
	}
	return out
}

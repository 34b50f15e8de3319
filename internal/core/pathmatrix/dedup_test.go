package pathmatrix

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// loadMini parses and checks one testdata program.
func loadMini(t *testing.T, file string) *types.Info {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, errs := types.Check(prog)
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	return info
}

func miniFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	return files
}

// TestMemoDeterminism: analyzing a program function by function, straight
// through AnalyzeCtxWith, must be byte-identical to AnalyzeProgramCtx on one
// worker and on eight, and to a second run of each against the warm
// summary cache and header slabs the first one left behind.
func TestMemoDeterminism(t *testing.T) {
	for _, file := range miniFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			info := loadMini(t, file)
			want := dumpProgram(t, analyzeEachFunction(t, info))
			for _, cfg := range []struct {
				name    string
				workers int
			}{
				{"serial", 1}, {"serial-again", 1},
				{"parallel", 8}, {"parallel-again", 8},
			} {
				got, err := AnalyzeProgramCtx(context.Background(), info, info.Env, cfg.workers)
				if err != nil {
					t.Fatal(err)
				}
				if d := dumpProgram(t, got); d != want {
					t.Errorf("%s: dump differs from the per-function reference", cfg.name)
				}
			}
		})
	}
}

// analyzeEachFunction is AnalyzeProgramCtx without the worker pool: the
// same summary table, one AnalyzeCtxWith run per function.
func analyzeEachFunction(t *testing.T, info *types.Info) map[string]*FuncResult {
	t.Helper()
	ctx := context.Background()
	tab, err := ComputeSummariesCtx(ctx, info, info.Env)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*FuncResult, len(info.Funcs))
	for name, fi := range info.Funcs {
		g := norm.Build(fi, info.Env)
		r, err := AnalyzeCtxWith(ctx, g, info.Env, tab)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = &FuncResult{Info: fi, Graph: g, Result: r}
	}
	return out
}

// TestJoinSharesEntries: joining a matrix with an equal-content sibling of
// its run must share the unchanged entries pointer-equal while staying
// contentwise identical to the slow joinEntries path, and a later write to a
// shared cell must COW rather than corrupt the donor.
func TestJoinSharesEntries(t *testing.T) {
	fill := func(m *Matrix) *Matrix {
		m.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
		m.addRel("p", "r", Rel{Kind: RelPath, Certain: true, Path: Path{{Field: "next", Min: 1}}})
		return m
	}
	a := fill(NewMatrix([]string{"p", "q", "r"}))
	b := fill(sibling(a))
	out, shared := join(a, b)
	if shared == 0 {
		t.Fatal("join of identical matrices shared no entries")
	}
	for _, k := range [][2]string{{"p", "q"}, {"q", "p"}, {"p", "r"}} {
		ea, eo := a.Entry(k[0], k[1]), out.Entry(k[0], k[1])
		if len(ea) == 0 {
			continue
		}
		if reflect.ValueOf(eo).Pointer() != reflect.ValueOf(ea).Pointer() {
			t.Fatalf("entry %v not shared pointer-equal", k)
		}
		if !equalEntries(joinEntries(nil, ea, b.Entry(k[0], k[1])), eo) {
			t.Fatalf("shared entry %v differs from joinEntries result", k)
		}
	}

	// Mutating the join result must not touch the donors.
	before := a.Entry("p", "q").String()
	out.addRel("p", "q", Rel{Kind: RelTop})
	if a.Entry("p", "q").String() != before || b.Entry("p", "q").String() != before {
		t.Fatal("mutation of shared entry leaked into donor matrix")
	}

	// Non-sig-canonical entries (same signature, different counts) must NOT
	// be shared: joining them folds the relations.
	c := NewMatrix([]string{"p", "q"})
	c.addRel("p", "q", Rel{Kind: RelPath, Certain: true, Path: Path{{Field: "next", Min: 1}}})
	c.addRel("p", "q", Rel{Kind: RelPath, Certain: true, Path: Path{{Field: "next", Min: 2}}})
	d := c.Clone()
	j, _ := join(c, d)
	if want := joinEntries(nil, c.Entry("p", "q"), d.Entry("p", "q")); !equalEntries(j.Entry("p", "q"), want) {
		t.Fatalf("non-canonical entry shared: got %s want %s", j.Entry("p", "q"), want)
	}
}

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

// TestMemoDeterminism: serial/parallel × memo-on/memo-off must all produce
// byte-identical matrix renderings — the memo is a pure cache. Each memo-on
// configuration runs twice, once against a cold memo and once warm, so both
// the miss and the hit path are pinned against the unmemoized engine.
func TestMemoDeterminism(t *testing.T) {
	for _, file := range miniFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			info := loadMini(t, file)

			want := dumpProgram(t, analyzeProgramNoMemo(t, info))

			memoReset()
			for _, cfg := range []struct {
				name    string
				workers int
			}{
				{"serial-cold", 1}, {"serial-warm", 1},
				{"parallel-warm", 8},
			} {
				got, err := AnalyzeProgramCtx(context.Background(), info, info.Env, cfg.workers)
				if err != nil {
					t.Fatal(err)
				}
				if d := dumpProgram(t, got); d != want {
					t.Errorf("%s: memoized dump differs from unmemoized baseline", cfg.name)
				}
			}
		})
	}
}

// analyzeProgramNoMemo is AnalyzeProgramCtx on the unmemoized reference
// path: the same summary table, every function fixpoint computed afresh.
func analyzeProgramNoMemo(t *testing.T, info *types.Info) map[string]*FuncResult {
	t.Helper()
	ctx := context.Background()
	tab, err := ComputeSummariesCtx(ctx, info, info.Env)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*FuncResult, len(info.Funcs))
	for name, fi := range info.Funcs {
		g := norm.Build(fi, info.Env)
		r, err := analyzeFull(ctx, g, info.Env, &analyzeOpts{tab: tab, noMemo: true})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = &FuncResult{Info: fi, Graph: g, Result: r}
	}
	return out
}

// TestMemoHitsOnRepeat: re-analyzing the same program must be served almost
// entirely from the memo — the cache is content-keyed and process-wide, not
// per-run.
func TestMemoHitsOnRepeat(t *testing.T) {
	memoReset()
	info := loadMini(t, miniFiles(t)[0])

	if _, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1); err != nil {
		t.Fatal(err)
	}
	h0, m0 := engineStats.memoHits.Load(), engineStats.memoMisses.Load()
	if _, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1); err != nil {
		t.Fatal(err)
	}
	hits := engineStats.memoHits.Load() - h0
	misses := engineStats.memoMisses.Load() - m0
	if hits == 0 {
		t.Fatalf("second run over identical input had no memo hits (misses=%d)", misses)
	}
	if misses != 0 {
		t.Errorf("second run recomputed %d transfers; all keys should be cached (hits=%d)", misses, hits)
	}
}

// TestFingerprintInvalidation: every mutator must clear the cached hash, and
// Clone must carry it.
func TestFingerprintInvalidation(t *testing.T) {
	m := NewMatrix([]string{"p", "q", "r"})
	m.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
	fp1 := m.fingerprint(nil)
	if fp1 == "" || m.fp != fp1 {
		t.Fatal("fingerprint not cached")
	}

	c := m.Clone()
	if c.fp != fp1 {
		t.Error("Clone dropped the fingerprint")
	}
	if c.fingerprint(nil) != fp1 {
		t.Error("clone fingerprint differs from donor")
	}

	steps := []struct {
		name string
		mut  func(*Matrix)
	}{
		{"addRel", func(m *Matrix) { m.addRel("p", "r", Rel{Kind: RelTop}) }},
		{"kill", func(m *Matrix) { m.kill("q") }},
		{"addViolation", func(m *Matrix) { m.addViolation(Violation{Prop: "unique", Field: "next", Base: "p"}) }},
		{"deleteViolation", func(m *Matrix) { m.deleteViolation(Violation{Prop: "unique", Field: "next", Base: "p"}) }},
	}
	for _, s := range steps {
		x := m.Clone()
		x.fingerprint(nil)
		s.mut(x)
		if x.fp != "" {
			t.Errorf("%s left a stale fingerprint", s.name)
		}
	}

	// Distinct content must hash distinctly; recomputed equal content must
	// hash equally.
	n := NewMatrix([]string{"p", "q", "r"})
	n.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
	if n.fingerprint(nil) != fp1 {
		t.Error("equal content, different fingerprint")
	}
	n.addRel("p", "q", Rel{Kind: RelTop})
	if n.fingerprint(nil) == fp1 {
		t.Error("different content, same fingerprint")
	}

	// Certainty is content: "=" vs "=?" must hash differently.
	u := NewMatrix([]string{"p", "q"})
	u.addRel("p", "q", Rel{Kind: RelAlias})
	v := NewMatrix([]string{"p", "q"})
	v.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
	if u.fingerprint(nil) == v.fingerprint(nil) {
		t.Error("certainty not part of the fingerprint")
	}
}

// TestJoinSharesEntries: joining a matrix with an equal-content sibling must
// share the unchanged entries pointer-equal while staying contentwise
// identical to the slow joinEntries path, and a later write to a shared cell
// must COW rather than corrupt the donor.
func TestJoinSharesEntries(t *testing.T) {
	mk := func() *Matrix {
		m := NewMatrix([]string{"p", "q", "r"})
		m.addRel("p", "q", Rel{Kind: RelAlias, Certain: true})
		m.addRel("p", "r", Rel{Kind: RelPath, Certain: true, Path: Intern(Path{{Field: "next", Min: 1}})})
		return m
	}
	a, b := mk(), mk()
	shared0 := engineStats.sharedRows.Load()
	out := Join(a, b)
	if got := engineStats.sharedRows.Load() - shared0; got == 0 {
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
		if !equalEntries(joinEntries(ea, b.Entry(k[0], k[1])), eo) {
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
	c.addRel("p", "q", Rel{Kind: RelPath, Certain: true, Path: Intern(Path{{Field: "next", Min: 1}})})
	c.addRel("p", "q", Rel{Kind: RelPath, Certain: true, Path: Intern(Path{{Field: "next", Min: 2}})})
	d := c.Clone()
	j := Join(c, d)
	if want := joinEntries(c.Entry("p", "q"), d.Entry("p", "q")); !equalEntries(j.Entry("p", "q"), want) {
		t.Fatalf("non-canonical entry shared: got %s want %s", j.Entry("p", "q"), want)
	}
}

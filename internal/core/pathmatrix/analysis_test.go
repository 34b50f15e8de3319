package pathmatrix

import (
	"context"
	"strings"
	"testing"

	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

const twoWayLL = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
`

const pBinTree = `
type PBinTree [down] {
    int data;
    PBinTree *left, *right is uniquely forward along down;
    PBinTree *parent is backward along down;
};
`

const cirL = `
type CirL [X] {
    int data;
    CirL *next is circular along X;
};
`

// analyzeFn parses, checks, normalizes and analyzes one function.
func analyzeFn(t *testing.T, src, fn string) (*Result, *norm.Graph) {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("function %s missing", fn)
	}
	g := norm.Build(fi, info.Env)
	return Analyze(g, info.Env), g
}

// analyzeFnSum analyzes fn compositionally, under a summary table computed
// for the whole program.
func analyzeFnSum(t *testing.T, src, fn string) (*Result, *norm.Graph) {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("function %s missing", fn)
	}
	g := norm.Build(fi, info.Env)
	r, err := AnalyzeCtxWith(context.Background(), g, info.Env, ComputeSummaries(info, info.Env))
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

// analyzeStripped runs the annotation-free (classic) analysis.
func analyzeStripped(t *testing.T, src, fn string) (*Result, *norm.Graph) {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	g := norm.Build(fi, info.Env)
	return Analyze(g, info.Env.Stripped()), g
}

// exitMatrix returns the matrix at function exit.
func exitMatrix(r *Result, g *norm.Graph) *Matrix { return r.BeforeNode(g.Exit) }

// afterStmt returns the matrix right after the i-th normalized statement
// (counting statement nodes in node order).
func afterStmt(r *Result, g *norm.Graph, i int) *Matrix {
	count := 0
	for _, n := range g.Nodes {
		if n.Kind == norm.NodeStmt {
			if count == i {
				return r.AfterNode(n)
			}
			count++
		}
	}
	return nil
}

// shiftOrigin is the paper's Section 5.1.2 program.
const shiftOrigin = twoWayLL + `
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
}
`

// TestPaperSection512BeforeLoop reproduces the first path matrix of
// Section 5.1.2: just before the loop, PM(hd, p) = next (one link).
func TestPaperSection512BeforeLoop(t *testing.T) {
	r, g := analyzeFn(t, shiftOrigin, "shift")
	m := afterStmt(r, g, 0) // after p = hd->next
	e := m.Entry("hd", "p")
	if e.String() != "next" {
		t.Errorf("PM(hd,p) = %q, want %q", e.String(), "next")
	}
	if m.MayAlias("hd", "p") {
		t.Error("hd and p must not alias after one deref of a uniquely forward field")
	}
}

// TestPaperSection512FixedPoint reproduces the fixed-point matrix: inside
// the loop PM(hd, p) = next+ and hd, p are never aliases.
func TestPaperSection512FixedPoint(t *testing.T) {
	r, g := analyzeFn(t, shiftOrigin, "shift")
	loop := g.Loops[0]
	m := r.LoopHead(loop)
	e := m.Entry("hd", "p")
	if e.String() != "next+" {
		t.Errorf("PM(hd,p) at fixed point = %q, want %q", e.String(), "next+")
	}
	for _, re := range e {
		if !re.Certain {
			t.Error("next+ should be a definite path at the fixed point")
		}
	}
	if m.MayAlias("hd", "p") {
		t.Error("false alias hd/p at fixed point")
	}
	if !m.Valid() {
		t.Errorf("abstraction should be valid; violations: %v", m.Violations())
	}
}

// TestPaperSection512Primed reproduces the primed-variable entries:
// PM(p', p) = next (successive iterates one link apart), PM(hd', p) = next+,
// and no aliasing between hd and any iterate of p.
func TestPaperSection512Primed(t *testing.T) {
	r, g := analyzeFn(t, shiftOrigin, "shift")
	im := r.IterationMatrix(g.Loops[0])

	if e := im.Entry("p"+Shadow, "p"); e.String() != "next" {
		t.Errorf("PM(p',p) = %q, want next", e.String())
	}
	// After the body runs once more, p is at least two links past hd (the
	// paper displays the looser next+).
	if e := im.Entry("hd"+Shadow, "p"); e.String() != "next^2+" {
		t.Errorf("PM(hd',p) = %q, want next^2+", e.String())
	}
	if im.MayAlias("p"+Shadow, "p") {
		t.Error("successive iterates of p falsely alias")
	}
	if im.MayAlias("hd", "p") || im.MayAlias("hd"+Shadow, "p") {
		t.Error("hd falsely aliases iterate of p")
	}
}

// TestClassicAnalysisConservative shows the contrast the paper draws: with
// the ADDS information stripped (all fields unknown), hd and p are possible
// aliases everywhere in the loop.
func TestClassicAnalysisConservative(t *testing.T) {
	r, g := analyzeStripped(t, shiftOrigin, "shift")
	m := r.LoopHead(g.Loops[0])
	if !m.MayAlias("hd", "p") {
		t.Error("classic analysis must conservatively alias hd and p")
	}
}

func TestParamsMayAlias(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *a, TwoWayLL *b) {
    a = a;
}`, "f")
	m := r.AtEntry()
	if !m.MayAlias("a", "b") {
		t.Error("same-type parameters must initially be possible aliases")
	}
	_ = g
}

func TestDifferentTypesNeverAlias(t *testing.T) {
	r, _ := analyzeFn(t, twoWayLL+pBinTree+`
void f(TwoWayLL *a, PBinTree *b) {
    a = a;
}`, "f")
	if r.AtEntry().MayAlias("a", "b") {
		t.Error("pointers to different record types cannot alias in mini")
	}
}

func TestAssignCreatesMustAlias(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p;
}`, "f")
	m := exitMatrix(r, g)
	if !m.MustAlias("p", "q") {
		t.Errorf("q = p must make them definite aliases; PM(p,q)=%q PM(q,p)=%q",
			m.Entry("p", "q"), m.Entry("q", "p"))
	}
}

func TestNilKills(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p;
    q = NULL;
}`, "f")
	m := exitMatrix(r, g)
	if m.MayAlias("p", "q") {
		t.Error("q = NULL must clear q's aliases")
	}
}

func TestNewIsUnrelated(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = new TwoWayLL;
}`, "f")
	m := exitMatrix(r, g)
	if m.MayAlias("p", "q") {
		t.Error("a fresh node cannot alias an existing pointer")
	}
}

// TestBinTreeSubtreesDisjoint exercises Def 4.7: left and right children of
// one node are unrelated (disjoint subtrees).
func TestBinTreeSubtreesDisjoint(t *testing.T) {
	r, g := analyzeFn(t, pBinTree+`
void f(PBinTree *root) {
    PBinTree *l, *rg;
    l = root->left;
    rg = root->right;
}`, "f")
	m := exitMatrix(r, g)
	if m.MayAlias("l", "rg") {
		t.Error("left and right subtrees must be disjoint (Def 4.7)")
	}
	// No alias relation may appear in either direction (a true sibling
	// path like parent.right is fine).
	if (factsOf(m.Entry("l", "rg"))|factsOf(m.Entry("rg", "l")))&(factAlias|factTop) != 0 {
		t.Errorf("alias info between siblings: %q / %q", m.Entry("l", "rg"), m.Entry("rg", "l"))
	}
	if m.MayAlias("root", "l") || m.MayAlias("root", "rg") {
		t.Error("children must not alias the root")
	}
}

// TestParentPointerShortens exercises Def 4.6: descending then taking the
// parent pointer returns to the original node.
func TestParentPointerShortens(t *testing.T) {
	r, g := analyzeFn(t, pBinTree+`
void f(PBinTree *root) {
    PBinTree *c, *back;
    c = root->left;
    back = c->parent;
}`, "f")
	m := exitMatrix(r, g)
	// back->left == c and back == root (may): PM(root, back) should admit
	// aliasing, and back should not falsely alias c.
	if !m.MayAlias("root", "back") {
		t.Error("parent of child may be the root")
	}
	if m.MayAlias("c", "back") {
		t.Error("child and its parent cannot alias (tree is acyclic)")
	}
}

// TestTwoWayListPrevReturns: q = p->next; r = q->prev means r may be p.
func TestTwoWayListPrevReturns(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *q, *r;
    q = p->next;
    r = q->prev;
}`, "f")
	m := exitMatrix(r, g)
	if !m.MayAlias("p", "r") {
		t.Error("next then prev must admit returning to p (Def 4.6)")
	}
	if m.MayAlias("q", "r") {
		t.Error("q and its prev cannot alias")
	}
}

// TestCircularConservative reproduces Section 3.1's CirL discussion: with a
// circular field, p = q->next forces the compiler to assume p and q alias.
func TestCircularConservative(t *testing.T) {
	r, g := analyzeFn(t, cirL+`
void f(CirL *q) {
    CirL *p;
    p = q->next;
}`, "f")
	m := exitMatrix(r, g)
	if !m.MayAlias("p", "q") {
		t.Error("circular next must make p and q possible aliases")
	}
}

// TestCircularLoopStillSound: traversing a circular list in a loop keeps
// every pair a possible alias.
func TestCircularLoopStillSound(t *testing.T) {
	r, g := analyzeFn(t, cirL+`
void f(CirL *hd) {
    CirL *p;
    p = hd->next;
    while (p != hd) {
        p = p->next;
    }
}`, "f")
	m := r.LoopHead(g.Loops[0])
	if !m.MayAlias("hd", "p") {
		t.Error("circular traversal must keep hd/p as possible aliases")
	}
}

// TestUnknownDefaultConservative: a declaration with no ADDS clause behaves
// like CirL (the paper: "equivalent to saying nothing at all").
func TestUnknownDefaultConservative(t *testing.T) {
	r, g := analyzeFn(t, `
type L {
    int data;
    L *next;
};
void f(L *q) {
    L *p;
    p = q->next;
}`, "f")
	m := exitMatrix(r, g)
	if !m.MayAlias("p", "q") {
		t.Error("unannotated field must be treated conservatively")
	}
}

// TestValidationSubtreeMove reproduces Section 5.1.1's example: moving a
// subtree breaks tree-ness until the source edge is nulled.
func TestValidationSubtreeMove(t *testing.T) {
	r, g := analyzeFn(t, pBinTree+`
void move(PBinTree *dest, PBinTree *src) {
    dest->left = src->left;
    src->left = NULL;
}`, "move")

	// After the first store the abstraction must be invalid (shared
	// subtree: two left edges into one node).
	m1 := afterStmt(r, g, 1) // @t = src->left ; dest->left = @t
	if m1.Valid() {
		t.Fatal("abstraction should be invalid after dest->left = src->left")
	}
	found := false
	for _, v := range m1.Violations() {
		if v.Prop == "group-disjoint" || v.Prop == "unique" {
			found = true
		}
	}
	if !found {
		t.Errorf("want a disjointness violation, got %v", m1.Violations())
	}

	// After src->left = NULL the violation must be repaired.
	m2 := exitMatrix(r, g)
	if !m2.Valid() {
		t.Errorf("abstraction should be valid again, got %v", m2.Violations())
	}
}

// TestValidationCycleStore: storing an edge that may close a cycle on an
// acyclic field is flagged.
func TestValidationCycleStore(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p->next;
    q->next = p;
}`, "f")
	m := exitMatrix(r, g)
	if m.Valid() {
		t.Fatal("q->next = p closes a cycle and must be flagged")
	}
	hasAcyclic := false
	for _, v := range m.Violations() {
		if v.Prop == "acyclic" {
			hasAcyclic = true
		}
	}
	if !hasAcyclic {
		t.Errorf("want acyclic violation, got %v", m.Violations())
	}
}

// TestListAppendValid: the standard append idiom keeps the abstraction
// valid: fresh node, link forward, link backward.
func TestListAppendValid(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void append(TwoWayLL *tail) {
    TwoWayLL *n;
    n = new TwoWayLL;
    n->next = NULL;
    tail->next = n;
    n->prev = tail;
}`, "append")
	m := exitMatrix(r, g)
	if !m.Valid() {
		t.Errorf("append idiom should keep abstraction valid, got %v", m.Violations())
	}
	if e := m.Entry("tail", "n").String(); !strings.Contains(e, "next") {
		t.Errorf("PM(tail,n) = %q, want a next path", e)
	}
}

// TestBackwardFirstThenForward: linking prev before next temporarily breaks
// Def 4.6, then repairs it.
func TestBackwardFirstThenForward(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void link(TwoWayLL *tail) {
    TwoWayLL *n;
    n = new TwoWayLL;
    n->prev = tail;
    tail->next = n;
}`, "link")
	m1 := afterStmt(r, g, 1) // after n->prev = tail
	if m1.Valid() {
		t.Error("n->prev = tail before tail->next = n must be flagged (Def 4.6)")
	}
	m2 := exitMatrix(r, g)
	if !m2.Valid() {
		t.Errorf("tail->next = n must repair the backward violation, got %v", m2.Violations())
	}
}

// TestStoreOverwriteRemovesPath: overwriting an edge must drop the old
// certain path so MustAlias does not lie.
func TestStoreOverwriteRemovesPath(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *x, *y;
    x = p->next;
    p->next = NULL;
    y = p->next;
}`, "f")
	m := exitMatrix(r, g)
	// y reads the new (NULL) edge; x holds the old target. They must not be
	// reported as definite aliases.
	if m.MustAlias("x", "y") {
		t.Error("x and y must not be definite aliases after the edge changed")
	}
}

func TestBranchNilRefinement(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p;
    if (q == NULL) {
        q = q;
    } else {
        q = q;
    }
}`, "f")
	// Find the branch node's true edge target and check q was killed there.
	for _, n := range g.Nodes {
		if n.Kind == norm.NodeBranch {
			trueSide := r.BeforeNode(n.Succs[0])
			if trueSide.MayAlias("p", "q") {
				t.Error("on q == NULL edge, q must alias nothing")
			}
			falseSide := r.BeforeNode(n.Succs[1])
			if !falseSide.MustAlias("p", "q") {
				t.Error("on q != NULL edge, q still aliases p")
			}
			return
		}
	}
	t.Fatal("no branch found")
}

func TestPtrEqRefinement(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *a, TwoWayLL *b) {
    if (a == b) {
        a = a;
    }
}`, "f")
	for _, n := range g.Nodes {
		if n.Kind == norm.NodeBranch {
			trueSide := r.BeforeNode(n.Succs[0])
			if !trueSide.MustAlias("a", "b") {
				t.Error("on a == b edge they must be definite aliases")
			}
			falseSide := r.BeforeNode(n.Succs[1])
			if falseSide.MustAlias("a", "b") {
				t.Error("on a != b edge they must not be definite aliases")
			}
			return
		}
	}
	t.Fatal("no branch found")
}

func TestCallHavocs(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void callee(TwoWayLL *x) { x = x; }
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p->next;
    callee(p);
}`, "f")
	m := exitMatrix(r, g)
	if !m.MayAlias("p", "q") {
		t.Error("after a call taking p, its relations must be conservative")
	}
}

func TestCallDoesNotTouchUnrelated(t *testing.T) {
	// Under a summary table the callee is known mutation-free, so the call
	// leaves every relation (and validity) untouched.
	r, g := analyzeFnSum(t, twoWayLL+`
void callee(TwoWayLL *x) { x = x; }
void f(TwoWayLL *p) {
    TwoWayLL *q, *other;
    other = new TwoWayLL;
    q = p->next;
    callee(p);
}`, "f")
	m := exitMatrix(r, g)
	if m.MayAlias("other", "p") || m.MayAlias("other", "q") {
		t.Error("call must not affect provably separate structures")
	}
	if !m.related("p", "q") {
		t.Error("q = p->next must survive a mutation-free call")
	}
	if !m.Valid() {
		t.Error("a mutation-free callee cannot break the abstraction")
	}
}

// TestCallWithoutSummariesTaintsValidity pins the havoc-only contract: with
// no information about the callee, the analysis cannot keep claiming the
// declared abstraction holds after the call — the callee may have broken it
// in ways havoc relations do not express (e.g. a backward self-loop).
func TestCallWithoutSummariesTaintsValidity(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void callee(TwoWayLL *x) { x = x; }
void f(TwoWayLL *p) {
    callee(p);
}`, "f")
	if exitMatrix(r, g).Valid() {
		t.Error("opaque call must taint validity")
	}
}

func TestFreeKills(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *p) {
    TwoWayLL *q;
    q = p;
    free(q);
}`, "f")
	m := exitMatrix(r, g)
	if m.MayAlias("p", "q") {
		t.Error("freed pointer's relations must be dropped")
	}
}

// TestIndependentDimsDisjoint exercises Def 4.9 on the LOLS declaration.
func TestIndependentDimsDisjoint(t *testing.T) {
	r, g := analyzeFn(t, `
type LOLS [X] [Y] where X || Y {
    int data;
    LOLS *across is uniquely forward along X;
    LOLS *back is backward along X;
    LOLS *down is uniquely forward along Y;
    LOLS *up is backward along Y;
};
void f(LOLS *m) {
    LOLS *a, *d;
    a = m->across;
    d = m->down;
}`, "f")
	mx := exitMatrix(r, g)
	if mx.MayAlias("a", "d") {
		t.Error("across/down targets must be disjoint for independent dims (Def 4.9)")
	}
}

// TestDependentDimsConservative: OrthL's dims are dependent, so the same
// derefs must admit convergence.
func TestDependentDimsConservative(t *testing.T) {
	r, g := analyzeFn(t, `
type OrthL [X] [Y] {
    int data;
    OrthL *across is uniquely forward along X;
    OrthL *back is backward along X;
    OrthL *down is uniquely forward along Y;
    OrthL *up is backward along Y;
};
void f(OrthL *m) {
    OrthL *a, *d;
    a = m->across;
    d = m->down;
    a = a->down;
    d = d->across;
}`, "f")
	mx := exitMatrix(r, g)
	if !mx.MayAlias("a", "d") {
		t.Error("dependent dimensions must admit convergence (orthogonal list)")
	}
}

// TestTreeLoopTraversal: descending a binary tree in a loop never aliases
// the root.
func TestTreeLoopTraversal(t *testing.T) {
	r, g := analyzeFn(t, pBinTree+`
void find(PBinTree *root, int key) {
    PBinTree *c;
    c = root;
    while (c != NULL) {
        if (c->data < key) {
            c = c->right;
        } else {
            c = c->left;
        }
    }
}`, "find")
	// In-loop matrix: c may equal root on the first iteration, so PM must
	// admit alias OR a down-path; after one step it is strictly below.
	im := r.IterationMatrix(g.Loops[0])
	if im.MayAlias("root", "c") {
		// c after one body execution is strictly below root'. root' == root
		// only if root was never reassigned; here root is loop-invariant.
		t.Error("after one descent step, c cannot alias root")
	}
}

func TestMatrixString(t *testing.T) {
	r, g := analyzeFn(t, shiftOrigin, "shift")
	s := r.LoopHead(g.Loops[0]).String()
	if !strings.Contains(s, "next+") || !strings.Contains(s, "hd") {
		t.Errorf("matrix rendering missing entries:\n%s", s)
	}
}

func TestAnalyzeProgramAllFuncs(t *testing.T) {
	info := types.MustCheck(parser.MustParse(twoWayLL + `
void a(TwoWayLL *p) { p = p->next; }
void b(TwoWayLL *p) { p = NULL; }
`))
	res, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res["a"] == nil || res["b"] == nil {
		t.Fatalf("results = %v", res)
	}
}

// TestTerminationLongChain guards the widening: a straight-line chain of
// many derefs must converge (counts cap at countCap).
func TestTerminationLongChain(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(twoWayLL + "\nvoid f(TwoWayLL *p) {\n")
	for i := 0; i < 30; i++ {
		sb.WriteString("    p = p->next;\n")
	}
	sb.WriteString("}\n")
	r, g := analyzeFn(t, sb.String(), "f")
	_ = exitMatrix(r, g) // must not hang or panic
}

// TestTerminationNestedLoops guards fixed-point convergence with nesting.
func TestTerminationNestedLoops(t *testing.T) {
	r, g := analyzeFn(t, twoWayLL+`
void f(TwoWayLL *hd) {
    TwoWayLL *p, *q;
    p = hd;
    while (p != NULL) {
        q = p;
        while (q != NULL) {
            q = q->next;
        }
        p = p->next;
    }
}`, "f")
	m := r.LoopHead(g.Loops[0])
	if m.MayAlias("hd", "q") && len(m.Entry("hd", "q")) == 0 {
		t.Error("inconsistent state")
	}
	_ = m
}

// TestTerminationSelfLoopStores pins fuzzer seed 1468: self-loop stores
// ("a->left = a") plus parent churn once made the fixed point oscillate;
// the node-visit widening must terminate the analysis with a sound,
// fully conservative result.
func TestTerminationSelfLoopStores(t *testing.T) {
	r, g := analyzeFn(t, pBinTree+`
void f(PBinTree *a) {
    PBinTree *b, *c, *d;
    int i;
    b = a;
    c = a;
    d = a;
    if (a != NULL) { a->parent = c; }
    i = 1;
    while (i > 0 && b != NULL) {
        b = b->right;
        i = i - 1;
    }
    b = a;
    a = new PBinTree;
    a = b;
    if (c != NULL) { c->parent = d; }
    if (d != NULL) { a = d->parent; }
    if (b != NULL) { d = b->parent; }
    while (i > 0 && c != NULL) {
        c = c->right;
        i = i - 1;
    }
    i = 3;
    while (i > 0 && d != NULL) {
        d = d->left;
        i = i - 1;
    }
    if (a != NULL) { a->left = a; }
    if (d != NULL) { d->parent = d; }
    d = b;
    if (d != NULL) { a = d->right; }
    d = new PBinTree;
}`, "f")
	// Must terminate (no panic) and be conservative at exit: the self-loop
	// stores broke the abstraction, so everything may alias.
	m := exitMatrix(r, g)
	if !m.MayAlias("a", "b") {
		t.Error("widened/broken state must stay conservative")
	}
	// Iteration matrices over every loop must terminate too.
	for _, l := range g.Loops {
		_ = r.IterationMatrix(l)
	}
}

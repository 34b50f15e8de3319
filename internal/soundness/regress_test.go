package soundness

import (
	"testing"

	"repro/adds"
	"repro/internal/alias"
	"repro/internal/core/pathmatrix"
	"repro/internal/difftest"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/structures"
)

// checkAllObserved executes fuzzed on a small list and requires GPM to
// admit every dynamically observed alias — the shared body of the
// regression tests below (each a shrunk addsfuzz campaign finding).
func checkAllObserved(t *testing.T, src string) {
	t.Helper()
	checkAllObservedOn(t, src, func(h *interp.Heap) *interp.Node {
		return structures.TwoWayList(h, nil, 2)
	})
}

func checkAllObservedOn(t *testing.T, src string, build func(h *interp.Heap) *interp.Node) {
	t.Helper()
	u := adds.MustLoad(src)
	g := norm.Build(u.Info.Func("fuzzed"), u.Info.Env)
	misses, err := difftest.Observe(u, g, []alias.Oracle{alias.NewGPM(g, u.Info.Env)}, func(in *interp.Interp) error {
		_, err := in.Call("fuzzed", interp.PtrVal(build(in.Heap)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range misses {
		t.Error(m)
	}
}

// TestRegressCyclicRepairWithRelatedValue: overwriting a known-cyclic edge
// with a value whose relation to the base was derived DURING the broken
// window (here @t = c->next, loaded through the cyclic edge itself) must
// not restore validity — the relation can hide an alias. Shrunk from
// addsfuzz list-profile seed 4226.
func TestRegressCyclicRepairWithRelatedValue(t *testing.T) {
	checkAllObserved(t, twoWayLL+`
void fuzzed(TwoWayLL *a) {
    TwoWayLL *b, *c, *d;
    b = a;
    d = a;
    d->next = a;
    c = b->next;
    d->next = c->next;
    c->next = d;
    b = b;
}
`)
}

// TestRegressViolationSurvivesReassignment: after d = new, a store through
// the fresh d overwrites a different node's edge and must not "repair" the
// violation recorded while d named the cyclic node. Also shrunk from
// addsfuzz seed 4226.
func TestRegressViolationSurvivesReassignment(t *testing.T) {
	checkAllObserved(t, twoWayLL+`
void fuzzed(TwoWayLL *a) {
    TwoWayLL *b, *c, *d;
    b = a;
    d = a;
    d->next = a;
    c = b->next;
    d = new TwoWayLL;
    d->next = c->next;
    c->next = d;
    b = b;
}
`)
}

// TestRegressBackwardEdgeSurvivesUnlink: overwriting d->next drops the
// forward relation to the old target, but the target's prev edge still
// reaches d's node in the heap, so c = c->prev can re-alias c with d.
// The dropped relation must demote to the unknown relation, not vanish —
// an empty entry claims the alias impossible. Shrunk from addsfuzz
// mixed-profile seed 4560.
func TestRegressBackwardEdgeSurvivesUnlink(t *testing.T) {
	checkAllObserved(t, twoWayLL+`
void fuzzed(TwoWayLL *a) {
    TwoWayLL *c, *d;
    c = a;
    d = c;
    c = c->next;
    d->next = NULL;
    c = c->prev;
    a = a;
}
`)
}

// TestRegressTopRelationMirroredOnUnlink: the tree counterpart. The store
// b->right = a demotes dropped relations to the unknown relation; that
// demotion must go through addRel so Top lands in BOTH cells — the load
// rules skip Entry(src, x) alias/Top relations as "mirrored", so a
// one-sided Top vanishes on the next load and the derived pointers claim
// non-alias. Shrunk from addsfuzz tree-profile seed 3182.
func TestRegressTopRelationMirroredOnUnlink(t *testing.T) {
	src := `
type PBinTree [down] {
    int data;
    PBinTree *left, *right is uniquely forward along down;
    PBinTree *parent is backward along down;
};
void fuzzed(PBinTree *a) {
    PBinTree *b, *c, *d;
    int i;
    c = a;
    d = a;
    i = 2;
    while (i > 0 && c != NULL) {
        c->data = c->data + 1;
        c = c->right;
        i = i - 1;
    }
    b = d;
    if (b != NULL && b->right == NULL) {
        a = new PBinTree;
        b->right = a;
        a->parent = b;
    }
    if (a != NULL) {
        d = a->right;
    }
    d = d->right;
    b = b;
}
`
	checkAllObservedOn(t, src, func(h *interp.Heap) *interp.Node {
		return perfectTree(h, 2)
	})
}

// TestRegressDepartureCanClimbBack: a path that leaves src through a
// sibling field but then takes a backward step can climb back out of the
// sibling subtree and re-enter fld's (left.parent.right from a left child
// IS src->right), so it must not count as a provably disjoint departure —
// the subtree arguments of Defs 4.7-4.9 only apply to descending paths.
// Shrunk from addsfuzz readonly-profile seed 12409.
func TestRegressDepartureCanClimbBack(t *testing.T) {
	src := `
type PBinTree [down] {
    int data;
    PBinTree *left, *right is uniquely forward along down;
    PBinTree *parent is backward along down;
};
void fuzzed(PBinTree *a) {
    PBinTree *b, *d;
    d = a;
    b = d->left;
    a = d->right;
    b = b->parent;
    b = b->right;
    d = d;
}
`
	checkAllObservedOn(t, src, func(h *interp.Heap) *interp.Node {
		return perfectTree(h, 2)
	})
}

// TestRegressDeletionIdiomStaysValid guards the precision side of the fix:
// from a valid state, the node-deletion idiom p->next = p->next->next uses
// the same matrix pattern (base forward-reaches src at store time) and
// must stay violation-free.
func TestRegressDeletionIdiomStaysValid(t *testing.T) {
	src := twoWayLL + `
void fuzzed(TwoWayLL *p) {
    TwoWayLL *t;
    if (p != NULL) {
        t = p->next;
        if (t != NULL) {
            p->next = t->next;
        }
    }
}
`
	info := adds.MustLoad(src).Info
	g := norm.Build(info.Func("fuzzed"), info.Env)
	res := pathmatrix.Analyze(g, info.Env)
	for _, n := range g.Nodes {
		if n.Kind != norm.NodeStmt {
			continue
		}
		if m := res.BeforeNode(n); !m.Valid() {
			t.Errorf("deletion idiom flagged invalid before %s: %v", n.Stmt.Pos, m.Violations())
		}
	}
}

// TestRegressMergeDespiteStaleRelation: the store transfer's structure
// merge must record the new composite path even when the two sides are
// already related — here a junk (b,c) relation from the preceding join
// made related(c,b) true, so `a->next = b` skipped the merge, PM(c,b)
// stayed empty, and the analysis refuted the real alias b==d after
// `b = b->prev; d = c->next` on a fully valid heap. Shrunk from the
// repair-profile campaign (addsfuzz -seed 11, program seed 734).
func TestRegressMergeDespiteStaleRelation(t *testing.T) {
	checkAllObserved(t, twoWayLL+`
void fuzzed(TwoWayLL *a) {
    TwoWayLL *b, *c, *d;
    b = a;
    c = a;
    d = a;
    if (c != NULL) {
        a = new TwoWayLL;
        a->next = c->next;
        if (a->next != NULL) {
            a->next->prev = a;
        }
        c->next = a;
        a->prev = c;
    }
    if (a != NULL) {
        b = new TwoWayLL;
        b->next = a->next;
        if (b->next != NULL) {
            b->next->prev = b;
        }
        a->next = b;
        b->prev = a;
    }
    if (b != NULL) {
        b = b->prev;
    }
    if (c != NULL && c->next != NULL) {
        d = c->next;
        c->next = d->next;
        if (c->next != NULL) {
            c->next->prev = c;
        }
    }
}
`)
}

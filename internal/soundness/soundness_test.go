// Package soundness cross-validates every static alias oracle against
// ground truth: mini programs run in the interpreter with a tracer that
// records, before each statement, which pointer variables actually point to
// the same node. Each observed alias must be admitted (MayAlias) by every
// oracle at the corresponding program point — the paper's core soundness
// claim for the path matrix ("an empty entry guarantees that the two
// pointers are not aliases").
package soundness

import (
	"context"
	"math/rand"
	"testing"

	"repro/adds"
	"repro/internal/alias"
	"repro/internal/alias/klimit"
	"repro/internal/difftest"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/shape"
	"repro/internal/structures"
)

// fixture is one program + input setup.
type fixture struct {
	name string
	src  string
	fn   string
	// build returns the arguments for fn given a fresh heap.
	build func(h *interp.Heap, rng *rand.Rand) []interp.Value
}

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

func listArg(n int) func(*interp.Heap, *rand.Rand) []interp.Value {
	return func(h *interp.Heap, rng *rand.Rand) []interp.Value {
		return []interp.Value{interp.PtrVal(structures.TwoWayList(h, nil, n))}
	}
}

var fixtures = []fixture{
	{
		name: "shift-origin",
		src: twoWayLL + `
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
}`,
		fn:    "shift",
		build: listArg(12),
	},
	{
		name: "reverse-in-place",
		src: twoWayLL + `
void reverse(TwoWayLL *hd) {
    TwoWayLL *prev, *cur, *nxt;
    prev = NULL;
    cur = hd;
    while (cur != NULL) {
        nxt = cur->next;
        cur->next = prev;
        cur->prev = nxt;
        prev = cur;
        cur = nxt;
    }
}`,
		fn:    "reverse",
		build: listArg(9),
	},
	{
		name: "walk-back-and-forth",
		src: twoWayLL + `
void zigzag(TwoWayLL *hd) {
    TwoWayLL *p, *q;
    p = hd;
    while (p->next != NULL) {
        p = p->next;
    }
    q = p;
    while (q != NULL) {
        q->data = q->data + 1;
        q = q->prev;
    }
}`,
		fn:    "zigzag",
		build: listArg(7),
	},
	{
		name: "tree-find",
		src: pBinTree + `
void find(PBinTree *root, int key) {
    PBinTree *c, *last;
    c = root;
    last = NULL;
    while (c != NULL) {
        last = c;
        if (c->data < key) {
            c = c->right;
        } else {
            c = c->left;
        }
    }
}`,
		fn: "find",
		build: func(h *interp.Heap, rng *rand.Rand) []interp.Value {
			keys := make([]int64, 15)
			for i := range keys {
				keys[i] = rng.Int63n(100)
			}
			return []interp.Value{
				interp.PtrVal(structures.BinTree(h, keys)),
				interp.IntVal(rng.Int63n(100)),
			}
		},
	},
	{
		name: "subtree-move",
		src: pBinTree + `
void move(PBinTree *root) {
    PBinTree *dest, *src, *t;
    dest = root->left;
    src = root->right;
    t = src->left;
    dest->left = NULL;
    dest->left = t;
    src->left = NULL;
    if (t != NULL) {
        t->parent = dest;
    }
}`,
		fn: "move",
		build: func(h *interp.Heap, rng *rand.Rand) []interp.Value {
			return []interp.Value{interp.PtrVal(perfectTree(h, 4))}
		},
	},
	{
		name: "circular-walk",
		src: cirL + `
void walk(CirL *start, int n) {
    CirL *p;
    p = start;
    while (n > 0) {
        p->data = p->data + 1;
        p = p->next;
        n = n - 1;
    }
}`,
		fn: "walk",
		build: func(h *interp.Heap, rng *rand.Rand) []interp.Value {
			return []interp.Value{
				interp.PtrVal(structures.Circular(h, 5)),
				interp.IntVal(13),
			}
		},
	},
	{
		name: "build-and-traverse",
		src: twoWayLL + `
void buildwalk(int n) {
    TwoWayLL *hd, *p, *tmp;
    hd = NULL;
    while (n > 0) {
        tmp = new TwoWayLL;
        tmp->data = n;
        tmp->next = hd;
        if (hd != NULL) {
            hd->prev = tmp;
        }
        hd = tmp;
        n = n - 1;
    }
    p = hd;
    while (p != NULL) {
        p = p->next;
    }
}`,
		fn: "buildwalk",
		build: func(h *interp.Heap, rng *rand.Rand) []interp.Value {
			return []interp.Value{interp.IntVal(8)}
		},
	},
	{
		name: "two-runners",
		src: twoWayLL + `
void race(TwoWayLL *hd) {
    TwoWayLL *slow, *fast;
    slow = hd;
    fast = hd;
    while (fast != NULL && fast->next != NULL) {
        slow = slow->next;
        fast = fast->next->next;
    }
}`,
		fn:    "race",
		build: listArg(11),
	},
}

func TestOraclesSoundAgainstExecution(t *testing.T) {
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			u := adds.MustLoad(fx.src)
			g := norm.Build(u.Info.Func(fx.fn), u.Info.Env)
			oracles := fourOracles(t, g, u.Info.Env)
			for seed := int64(1); seed <= 5; seed++ {
				rng := rand.New(rand.NewSource(seed))
				misses, err := difftest.Observe(u, g, oracles, func(in *interp.Interp) error {
					_, err := in.Call(fx.fn, fx.build(in.Heap, rng)...)
					return err
				})
				if err != nil {
					t.Fatalf("seed %d: execution failed: %v", seed, err)
				}
				for _, m := range misses {
					t.Errorf("seed %d: %s", seed, m)
				}
			}
		})
	}
}

// TestPrecisionOrdering documents the expected precision relationships on
// the shift loop: ADDS+GPM is strictly more precise than classic, which is
// at most as precise as conservative.
func TestPrecisionOrdering(t *testing.T) {
	fx := fixtures[0]
	info := adds.MustLoad(fx.src).Info
	fi := info.Func(fx.fn)
	g := norm.Build(fi, info.Env)
	oracles := fourOracles(t, g, info.Env)

	falseCount := func(o alias.Oracle) int {
		c := 0
		vars := fi.PointerVars()
		for _, n := range g.Nodes {
			if n.Kind != norm.NodeStmt {
				continue
			}
			for i, p := range vars {
				for _, q := range vars[i+1:] {
					if !o.MayAlias(n, p, q) {
						c++
					}
				}
			}
		}
		return c
	}
	ng, nc, nv := falseCount(oracles[0]), falseCount(oracles[1]), falseCount(oracles[2])
	if !(ng > nc) {
		t.Errorf("GPM (%d no-alias answers) should beat classic (%d)", ng, nc)
	}
	if nc < nv {
		t.Errorf("classic (%d) should not be worse than conservative (%d)", nc, nv)
	}
}

// fourOracles builds the oracles the soundness harnesses check, in the
// order GPM, classic, conservative and the k=2 storage graph.
func fourOracles(t testing.TB, g *norm.Graph, env *shape.Env) []alias.Oracle {
	t.Helper()
	k, err := klimit.Analyze(context.Background(), g, env, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []alias.Oracle{alias.NewGPM(g, env), alias.NewClassic(g, env), alias.NewConservative(g), k}
}

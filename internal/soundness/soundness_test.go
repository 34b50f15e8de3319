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

	"repro/internal/alias"
	"repro/internal/alias/klimit"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/shape"
	"repro/internal/source/ast"
	"repro/internal/source/parser"
	"repro/internal/source/token"
	"repro/internal/source/types"
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

// tracer records observed aliases keyed by statement position.
type tracer struct {
	ptrVars []string
	// observed[pos] = set of aliased pairs seen before a statement at pos.
	observed map[token.Pos]map[[2]string]bool
}

func (tr *tracer) AtStmt(s ast.Stmt, vars map[string]interp.Value) {
	pos := s.Pos()
	for i, p := range tr.ptrVars {
		vp, ok := vars[p]
		if !ok || !vp.IsPtr || vp.Ptr == nil {
			continue
		}
		for _, q := range tr.ptrVars[i+1:] {
			vq, ok := vars[q]
			if !ok || !vq.IsPtr || vq.Ptr == nil {
				continue
			}
			if vp.Ptr == vq.Ptr {
				if tr.observed[pos] == nil {
					tr.observed[pos] = map[[2]string]bool{}
				}
				tr.observed[pos][[2]string{p, q}] = true
			}
		}
	}
}

// nodesAtPos returns the earliest norm CFG node lowered from a statement at
// the position (the point "before the statement").
func nodeAtPos(g *norm.Graph, pos token.Pos) *norm.Node {
	for _, n := range g.Nodes {
		if n.Kind == norm.NodeStmt && n.Stmt.Pos == pos {
			return n
		}
	}
	return nil
}

func TestOraclesSoundAgainstExecution(t *testing.T) {
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			prog := parser.MustParse(fx.src)
			info := types.MustCheck(prog)
			fi := info.Func(fx.fn)
			g := norm.Build(fi, info.Env)

			oracles := []alias.Oracle{
				alias.NewGPM(g, info.Env),
				alias.NewClassic(g, info.Env),
				alias.NewConservative(g),
				kLimited(t, g, info.Env),
			}

			for seed := int64(1); seed <= 5; seed++ {
				in := interp.New(prog)
				tr := &tracer{
					ptrVars:  fi.PointerVars(),
					observed: map[token.Pos]map[[2]string]bool{},
				}
				in.Tracer = tr
				rng := rand.New(rand.NewSource(seed))
				args := fx.build(in.Heap, rng)
				if _, err := in.Call(fx.fn, args...); err != nil {
					t.Fatalf("seed %d: execution failed: %v", seed, err)
				}

				for pos, pairs := range tr.observed {
					n := nodeAtPos(g, pos)
					if n == nil {
						continue // statement with no pointer-relevant lowering
					}
					for pair := range pairs {
						for _, o := range oracles {
							if !o.MayAlias(n, pair[0], pair[1]) {
								t.Errorf("seed %d: oracle %s misses real alias %s==%s before %s",
									seed, o.Name(), pair[0], pair[1], pos)
							}
						}
					}
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
	prog := parser.MustParse(fx.src)
	info := types.MustCheck(prog)
	fi := info.Func(fx.fn)
	g := norm.Build(fi, info.Env)

	gpm := alias.NewGPM(g, info.Env)
	classic := alias.NewClassic(g, info.Env)
	cons := alias.NewConservative(g)

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
	ng, nc, nv := falseCount(gpm), falseCount(classic), falseCount(cons)
	if !(ng > nc) {
		t.Errorf("GPM (%d no-alias answers) should beat classic (%d)", ng, nc)
	}
	if nc < nv {
		t.Errorf("classic (%d) should not be worse than conservative (%d)", nc, nv)
	}
}

// kLimited builds the k=2 storage-graph oracle for g.
func kLimited(t testing.TB, g *norm.Graph, env *shape.Env) alias.Oracle {
	t.Helper()
	o, err := klimit.Analyze(context.Background(), g, env, 2)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

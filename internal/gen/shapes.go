package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// structureSpec bundles everything structure-specific: the ADDS declaration
// (kept verbatim in sync with internal/structures.Decls), a mini builder
// that constructs a valid instance, the main wrapper, and the statement
// grammar of the fuzzed function.
type structureSpec struct {
	typeName string
	decl     string
	builder  string
	mainSrc  string
	// emit produces one random top-level statement. It must only emit
	// pointer-field stores (shape mutations) when the profile allows them.
	emit func(rng *rand.Rand, pr Profile) Stmt
	// callFwd/callBack are the link fields the call-profile helpers mutate
	// and traverse: a forward field and, where the structure has one, its
	// backward companion (empty for CirL).
	callFwd, callBack string
}

// helpers renders the call-profile callee family for the structure:
//
//   - hbump: data-only writer — its summary taints no pointer relations, so
//     summarized analysis stays strictly more precise than the havoc.
//   - hlink: aliasing link mutator — stores one argument's address into the
//     other's forward field (and back-link when the structure has one),
//     exercising cross-argument summary instantiation.
//   - hrec: self-recursive walker — the engine refuses to summarize it, so
//     every call site takes the havoc fallback path.
func (s *structureSpec) helpers() string {
	var b strings.Builder
	fmt.Fprintf(&b, "void hbump(%s *p) {\n    if (p != NULL) {\n        p->data = p->data + 1;\n    }\n}\n", s.typeName)
	fmt.Fprintf(&b, "void hlink(%s *p, %s *q) {\n    if (p != NULL && q != NULL) {\n        p->%s = q;\n", s.typeName, s.typeName, s.callFwd)
	if s.callBack != "" {
		fmt.Fprintf(&b, "        q->%s = p;\n", s.callBack)
	}
	b.WriteString("    }\n}\n")
	fmt.Fprintf(&b, "void hrec(%s *p, int d) {\n    if (p != NULL && d > 0) {\n        p->data = d;\n        hrec(p->%s, d - 1);\n    }\n}\n", s.typeName, s.callFwd)
	return b.String()
}

// callStmt emits one call to a helper with variable-only pointer arguments.
// hlink is weighted up: two-argument calls are where summary instantiation
// can go wrong.
func callStmt(rng *rand.Rand) Stmt {
	switch rng.Intn(4) {
	case 0:
		return simple(fmt.Sprintf("hbump(%s);", pickVar(rng)))
	case 1, 2:
		return simple(fmt.Sprintf("hlink(%s, %s);", pickVar(rng), pickVar(rng)))
	default:
		return simple(fmt.Sprintf("hrec(%s, %d);", pickVar(rng), rng.Intn(4)+1))
	}
}

var vars = []string{"a", "b", "c", "d"}

func pickVar(rng *rand.Rand) string { return vars[rng.Intn(len(vars))] }

func pickOf(rng *rand.Rand, of []string) string { return of[rng.Intn(len(of))] }

// copyStmt, nullStmt, newStmt are the structure-independent statements.
func copyStmt(rng *rand.Rand) Stmt {
	return simple(fmt.Sprintf("%s = %s;", pickVar(rng), pickVar(rng)))
}

func nullStmt(rng *rand.Rand) Stmt {
	return simple(fmt.Sprintf("%s = NULL;", pickVar(rng)))
}

func newStmt(rng *rand.Rand, typeName string) Stmt {
	return simple(fmt.Sprintf("%s = new %s;", pickVar(rng), typeName))
}

// derefStmt emits a guarded pointer-field read: if (x != NULL) { y = x->f; }
func derefStmt(rng *rand.Rand, fields []string) Stmt {
	src := pickVar(rng)
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL) {", src)},
		Body: []Stmt{simple(fmt.Sprintf("%s = %s->%s;", pickVar(rng), src, pickOf(rng, fields)))},
		Tail: "}",
	}
}

// storeStmt emits a guarded pointer-field write (possibly breaking the
// declared abstraction — the analyses must stay sound regardless).
func storeStmt(rng *rand.Rand, fields []string) Stmt {
	base := pickVar(rng)
	rhs := pickVar(rng)
	if rng.Intn(3) == 0 {
		rhs = "NULL"
	}
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL) {", base)},
		Body: []Stmt{simple(fmt.Sprintf("%s->%s = %s;", base, pickOf(rng, fields), rhs))},
		Tail: "}",
	}
}

// dataStmt emits a guarded int-field write (never a shape mutation).
func dataStmt(rng *rand.Rand) Stmt {
	base := pickVar(rng)
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL) {", base)},
		Body: []Stmt{simple(fmt.Sprintf("%s->data = %d;", base, rng.Intn(100)))},
		Tail: "}",
	}
}

// walkStmt emits a bounded traversal loop along one field.
func walkStmt(rng *rand.Rand, fields []string) Stmt {
	v := pickVar(rng)
	f := pickOf(rng, fields)
	body := []Stmt{simple(fmt.Sprintf("%s = %s->%s;", v, v, f))}
	if rng.Intn(3) == 0 {
		body = append([]Stmt{simple(fmt.Sprintf("%s->data = %s->data + 1;", v, v))}, body...)
	}
	body = append(body, simple("i = i - 1;"))
	return Stmt{
		Head: []string{
			fmt.Sprintf("i = %d;", rng.Intn(5)+1),
			fmt.Sprintf("while (i > 0 && %s != NULL) {", v),
		},
		Body: body,
		Tail: "}",
	}
}

// ---------------------------------------------------------------------------
// TwoWayLL

const twoWayDecl = `type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
`

const twoWayBuilder = `void build(TwoWayLL *hd, int n) {
    TwoWayLL *tail, *node;
    int k;
    tail = hd;
    k = 1;
    while (k < n) {
        node = new TwoWayLL;
        node->data = k;
        tail->next = node;
        node->prev = tail;
        tail = node;
        k = k + 1;
    }
}
`

const twoWayMain = `int main(int n) {
    TwoWayLL *root;
    root = new TwoWayLL;
    root->data = 0;
    build(root, n);
    fuzzed(root);
    return 0;
}
`

// insertList is the break-and-repair idiom: splice a fresh node after b.
// Between the first store and the last, the two-way invariant is violated
// and then restored — the temporary-violation pattern of Section 5.1.1.
func insertList(rng *rand.Rand) Stmt {
	base := pickVar(rng)
	tmp := pickVar(rng)
	if tmp == base {
		tmp = "d"
	}
	if tmp == base { // base was d
		tmp = "c"
	}
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL) {", base)},
		Body: []Stmt{
			simple(fmt.Sprintf("%s = new TwoWayLL;", tmp)),
			simple(fmt.Sprintf("%s->next = %s->next;", tmp, base)),
			{
				Head: []string{fmt.Sprintf("if (%s->next != NULL) {", tmp)},
				Body: []Stmt{simple(fmt.Sprintf("%s->next->prev = %s;", tmp, tmp))},
				Tail: "}",
			},
			simple(fmt.Sprintf("%s->next = %s;", base, tmp)),
			simple(fmt.Sprintf("%s->prev = %s;", tmp, base)),
		},
		Tail: "}",
	}
}

// unlinkList is the deletion half of the repair idioms: remove the node
// after base, re-linking next and then prev. Between the two stores the
// removed node's prev still points into the list — backward is broken
// exactly while forward is already repaired.
func unlinkList(rng *rand.Rand) Stmt {
	base := pickVar(rng)
	tmp := pickVar(rng)
	if tmp == base {
		tmp = "d"
	}
	if tmp == base {
		tmp = "c"
	}
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL && %s->next != NULL) {", base, base)},
		Body: []Stmt{
			simple(fmt.Sprintf("%s = %s->next;", tmp, base)),
			simple(fmt.Sprintf("%s->next = %s->next;", base, tmp)),
			{
				Head: []string{fmt.Sprintf("if (%s->next != NULL) {", base)},
				Body: []Stmt{simple(fmt.Sprintf("%s->next->prev = %s;", base, base))},
				Tail: "}",
			},
		},
		Tail: "}",
	}
}

func emitList(rng *rand.Rand, pr Profile) Stmt {
	fields := []string{"next", "prev"}
	if pr.Repair {
		// The repair profile trades breadth for depth: half the draws are
		// splice or unlink sequences, the rest are the reads and walks that
		// query oracles against the mid-repair heap.
		switch rng.Intn(8) {
		case 0:
			return copyStmt(rng)
		case 1:
			return derefStmt(rng, fields)
		case 2:
			return walkStmt(rng, fields)
		case 3:
			return newStmt(rng, "TwoWayLL")
		case 4, 5:
			return insertList(rng)
		default:
			return unlinkList(rng)
		}
	}
	max := 7
	if pr.Mutate {
		max = 10
	}
	switch rng.Intn(max) {
	case 0:
		return copyStmt(rng)
	case 1:
		return nullStmt(rng)
	case 2:
		return newStmt(rng, "TwoWayLL")
	case 3, 4:
		return derefStmt(rng, fields)
	case 5:
		return dataStmt(rng)
	case 6:
		return walkStmt(rng, fields)
	case 7, 8:
		return storeStmt(rng, fields)
	default:
		return insertList(rng)
	}
}

// ---------------------------------------------------------------------------
// PBinTree

const treeDecl = `type PBinTree [down] {
    int data;
    PBinTree *left, *right is uniquely forward along down;
    PBinTree *parent is backward along down;
};
`

const treeBuilder = `void grow(PBinTree *t, int d) {
    PBinTree *l, *r;
    if (d > 0) {
        l = new PBinTree;
        l->data = d;
        t->left = l;
        l->parent = t;
        grow(l, d - 1);
        r = new PBinTree;
        r->data = d;
        t->right = r;
        r->parent = t;
        grow(r, d - 1);
    }
}
`

const treeMain = `int main(int n) {
    PBinTree *root;
    root = new PBinTree;
    root->data = 0;
    grow(root, n);
    fuzzed(root);
    return 0;
}
`

// attachLeaf grows a fresh leaf under b with its parent back-link — a
// combined-group (Defs 4.7-4.8) mutation that keeps the declaration intact.
func attachLeaf(rng *rand.Rand) Stmt {
	base := pickVar(rng)
	tmp := pickVar(rng)
	if tmp == base {
		tmp = "d"
	}
	if tmp == base {
		tmp = "c"
	}
	child := pickOf(rng, []string{"left", "right"})
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL && %s->%s == NULL) {", base, base, child)},
		Body: []Stmt{
			simple(fmt.Sprintf("%s = new PBinTree;", tmp)),
			simple(fmt.Sprintf("%s->%s = %s;", base, child, tmp)),
			simple(fmt.Sprintf("%s->parent = %s;", tmp, base)),
		},
		Tail: "}",
	}
}

func emitTree(rng *rand.Rand, pr Profile) Stmt {
	down := []string{"left", "right"}
	all := []string{"left", "right", "parent"}
	max := 7
	if pr.Mutate {
		max = 10
	}
	switch rng.Intn(max) {
	case 0:
		return copyStmt(rng)
	case 1:
		return nullStmt(rng)
	case 2:
		return newStmt(rng, "PBinTree")
	case 3, 4:
		return derefStmt(rng, all)
	case 5:
		return dataStmt(rng)
	case 6:
		return walkStmt(rng, down)
	case 7, 8:
		return storeStmt(rng, all)
	default:
		return attachLeaf(rng)
	}
}

// ---------------------------------------------------------------------------
// CirL

const cirDecl = `type CirL [X] {
    int data;
    CirL *next is circular along X;
};
`

const cirBuilder = `void build(CirL *first, int n) {
    CirL *cur, *node;
    int k;
    cur = first;
    k = 1;
    while (k < n) {
        node = new CirL;
        node->data = k;
        cur->next = node;
        cur = node;
        k = k + 1;
    }
    cur->next = first;
}
`

const cirMain = `int main(int n) {
    CirL *root;
    root = new CirL;
    root->data = 0;
    build(root, n);
    fuzzed(root);
    return 0;
}
`

// insertRing splices a fresh node into the ring after b, preserving
// circularity end to end.
func insertRing(rng *rand.Rand) Stmt {
	base := pickVar(rng)
	tmp := pickVar(rng)
	if tmp == base {
		tmp = "d"
	}
	if tmp == base {
		tmp = "c"
	}
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL) {", base)},
		Body: []Stmt{
			simple(fmt.Sprintf("%s = new CirL;", tmp)),
			simple(fmt.Sprintf("%s->next = %s->next;", tmp, base)),
			simple(fmt.Sprintf("%s->next = %s;", base, tmp)),
		},
		Tail: "}",
	}
}

func emitCir(rng *rand.Rand, pr Profile) Stmt {
	fields := []string{"next"}
	max := 7
	if pr.Mutate {
		max = 10
	}
	switch rng.Intn(max) {
	case 0:
		return copyStmt(rng)
	case 1:
		return nullStmt(rng)
	case 2:
		return newStmt(rng, "CirL")
	case 3, 4:
		return derefStmt(rng, fields)
	case 5:
		return dataStmt(rng)
	case 6:
		return walkStmt(rng, fields)
	case 7, 8:
		return storeStmt(rng, fields)
	default:
		return insertRing(rng)
	}
}

// ---------------------------------------------------------------------------
// LOLS (list of lists, where X || Y)

const lolsDecl = `type LOLS [X] [Y] where X || Y {
    int data;
    LOLS *across is uniquely forward along X;
    LOLS *back is backward along X;
    LOLS *down is uniquely forward along Y;
    LOLS *up is backward along Y;
};
`

const lolsBuilder = `void row(LOLS *hd, int n) {
    LOLS *cur, *node;
    int k;
    cur = hd;
    k = 1;
    while (k < n) {
        node = new LOLS;
        node->data = k;
        cur->across = node;
        node->back = cur;
        cur = node;
        k = k + 1;
    }
}
void build(LOLS *first, int n) {
    LOLS *cur, *node;
    int k;
    row(first, n);
    cur = first;
    k = 1;
    while (k < n) {
        node = new LOLS;
        node->data = k;
        row(node, n);
        cur->down = node;
        node->up = cur;
        cur = node;
        k = k + 1;
    }
}
`

const lolsMain = `int main(int n) {
    LOLS *root;
    root = new LOLS;
    root->data = 0;
    build(root, n);
    fuzzed(root);
    return 0;
}
`

func emitLols(rng *rand.Rand, pr Profile) Stmt {
	fwd := []string{"across", "down"}
	all := []string{"across", "back", "down", "up"}
	max := 7
	if pr.Mutate {
		max = 9
	}
	switch rng.Intn(max) {
	case 0:
		return copyStmt(rng)
	case 1:
		return nullStmt(rng)
	case 2:
		return newStmt(rng, "LOLS")
	case 3, 4:
		return derefStmt(rng, all)
	case 5:
		return dataStmt(rng)
	case 6:
		return walkStmt(rng, fwd)
	default:
		return storeStmt(rng, all)
	}
}

// ---------------------------------------------------------------------------
// ThreadTree (parent-pointer tree with an undeclared threading cross-link)

// The thread field carries no ADDS clause, so its direction is unknown: the
// builder strings it across subtrees (each node threads to an ancestor's
// thread), giving the analyses a field the declaration says nothing about
// next to a fully declared combined group.
const ptreeDecl = `type ThreadTree [down] {
    int data;
    ThreadTree *left, *right is uniquely forward along down;
    ThreadTree *parent is backward along down;
    ThreadTree *thread;
};
`

const ptreeBuilder = `void grow(ThreadTree *t, int d) {
    ThreadTree *l, *r;
    if (d > 0) {
        l = new ThreadTree;
        l->data = d;
        t->left = l;
        l->parent = t;
        l->thread = t;
        grow(l, d - 1);
        r = new ThreadTree;
        r->data = d;
        t->right = r;
        r->parent = t;
        r->thread = t->thread;
        grow(r, d - 1);
    }
}
`

const ptreeMain = `int main(int n) {
    ThreadTree *root;
    root = new ThreadTree;
    root->data = 0;
    grow(root, n);
    fuzzed(root);
    return 0;
}
`

// attachThreaded grows a fresh leaf under base with its parent back-link,
// then threads it to the inherited cross-link — the combined-group mutation
// of attachLeaf plus an undeclared-field alias.
func attachThreaded(rng *rand.Rand) Stmt {
	base := pickVar(rng)
	tmp := pickVar(rng)
	if tmp == base {
		tmp = "d"
	}
	if tmp == base {
		tmp = "c"
	}
	child := pickOf(rng, []string{"left", "right"})
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL && %s->%s == NULL) {", base, base, child)},
		Body: []Stmt{
			simple(fmt.Sprintf("%s = new ThreadTree;", tmp)),
			simple(fmt.Sprintf("%s->%s = %s;", base, child, tmp)),
			simple(fmt.Sprintf("%s->parent = %s;", tmp, base)),
			simple(fmt.Sprintf("%s->thread = %s->thread;", tmp, base)),
		},
		Tail: "}",
	}
}

func emitPTree(rng *rand.Rand, pr Profile) Stmt {
	walk := []string{"left", "right", "thread"}
	all := []string{"left", "right", "parent", "thread"}
	max := 7
	if pr.Mutate {
		max = 10
	}
	switch rng.Intn(max) {
	case 0:
		return copyStmt(rng)
	case 1:
		return nullStmt(rng)
	case 2:
		return newStmt(rng, "ThreadTree")
	case 3, 4:
		return derefStmt(rng, all)
	case 5:
		return dataStmt(rng)
	case 6:
		return walkStmt(rng, walk)
	case 7, 8:
		return storeStmt(rng, all)
	default:
		return attachThreaded(rng)
	}
}

// ---------------------------------------------------------------------------
// SkipL (two-level skip list: forward fields at distinct dimensions)

const skipDecl = `type SkipL [L0] [L1] {
    int data;
    SkipL *next0 is uniquely forward along L0;
    SkipL *next1 is forward along L1;
};
`

// The express lane links every third node, so next1 hops over next0 runs —
// the lane structure segment summaries tend to collapse.
const skipBuilder = `void build(SkipL *hd, int n) {
    SkipL *tail, *top, *node;
    int k, j;
    tail = hd;
    top = hd;
    j = 0;
    k = 1;
    while (k < n) {
        node = new SkipL;
        node->data = k;
        tail->next0 = node;
        tail = node;
        j = j + 1;
        if (j > 1) {
            top->next1 = node;
            top = node;
            j = 0;
        }
        k = k + 1;
    }
}
`

const skipMain = `int main(int n) {
    SkipL *root;
    root = new SkipL;
    root->data = 0;
    build(root, n);
    fuzzed(root);
    return 0;
}
`

// descendSkip is the search step: ride the express lane while it lasts,
// drop to the base lane otherwise — a bounded walk that mixes the levels.
func descendSkip(rng *rand.Rand) Stmt {
	v := pickVar(rng)
	return Stmt{
		Head: []string{
			fmt.Sprintf("i = %d;", rng.Intn(4)+1),
			fmt.Sprintf("while (i > 0 && %s != NULL) {", v),
		},
		Body: []Stmt{
			{
				Head: []string{fmt.Sprintf("if (%s->next1 != NULL) {", v)},
				Body: []Stmt{simple(fmt.Sprintf("%s = %s->next1;", v, v))},
				Tail: "}",
			},
			{
				Head: []string{fmt.Sprintf("if (%s != NULL) {", v)},
				Body: []Stmt{simple(fmt.Sprintf("%s = %s->next0;", v, v))},
				Tail: "}",
			},
			simple("i = i - 1;"),
		},
		Tail: "}",
	}
}

// promoteSkip lifts a base-lane successor into the express lane — a
// level-crossing store that makes next1 skip past fresh next0 nodes.
func promoteSkip(rng *rand.Rand) Stmt {
	base := pickVar(rng)
	tmp := pickVar(rng)
	if tmp == base {
		tmp = "d"
	}
	if tmp == base {
		tmp = "c"
	}
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL && %s->next0 != NULL) {", base, base)},
		Body: []Stmt{
			simple(fmt.Sprintf("%s = %s->next0;", tmp, base)),
			simple(fmt.Sprintf("%s->next1 = %s->next0;", base, tmp)),
		},
		Tail: "}",
	}
}

func emitSkip(rng *rand.Rand, pr Profile) Stmt {
	fields := []string{"next0", "next1"}
	max := 7
	if pr.Mutate {
		max = 10
	}
	switch rng.Intn(max) {
	case 0:
		return copyStmt(rng)
	case 1:
		return nullStmt(rng)
	case 2:
		return newStmt(rng, "SkipL")
	case 3, 4:
		return derefStmt(rng, fields)
	case 5:
		return dataStmt(rng)
	case 6:
		return descendSkip(rng)
	case 7, 8:
		return storeStmt(rng, fields)
	default:
		return promoteSkip(rng)
	}
}

// ---------------------------------------------------------------------------
// CirLOL (doubly-linked circular list of lists, where X || Y)

const cirLolDecl = `type CirLOL [X] [Y] where X || Y {
    int data;
    CirLOL *next is circular along X;
    CirLOL *prev is circular along X;
    CirLOL *down is uniquely forward along Y;
    CirLOL *up is backward along Y;
};
`

const cirLolBuilder = `void rung(CirLOL *hd, int n) {
    CirLOL *cur, *node;
    int k;
    cur = hd;
    k = 1;
    while (k < n) {
        node = new CirLOL;
        node->data = k;
        cur->down = node;
        node->up = cur;
        cur = node;
        k = k + 1;
    }
}
void build(CirLOL *first, int n) {
    CirLOL *cur, *node;
    int k;
    rung(first, n);
    cur = first;
    k = 1;
    while (k < n) {
        node = new CirLOL;
        node->data = k;
        rung(node, n);
        cur->next = node;
        node->prev = cur;
        cur = node;
        k = k + 1;
    }
    cur->next = first;
    first->prev = cur;
}
`

const cirLolMain = `int main(int n) {
    CirLOL *root;
    root = new CirLOL;
    root->data = 0;
    build(root, n);
    fuzzed(root);
    return 0;
}
`

// spliceRingLOL splices a fresh node into the ring after base, repairing
// both circular links; between the stores the ring is inconsistent in both
// directions at once.
func spliceRingLOL(rng *rand.Rand) Stmt {
	base := pickVar(rng)
	tmp := pickVar(rng)
	if tmp == base {
		tmp = "d"
	}
	if tmp == base {
		tmp = "c"
	}
	return Stmt{
		Head: []string{fmt.Sprintf("if (%s != NULL && %s->next != NULL) {", base, base)},
		Body: []Stmt{
			simple(fmt.Sprintf("%s = new CirLOL;", tmp)),
			simple(fmt.Sprintf("%s->next = %s->next;", tmp, base)),
			simple(fmt.Sprintf("%s->prev = %s;", tmp, base)),
			simple(fmt.Sprintf("%s->next->prev = %s;", base, tmp)),
			simple(fmt.Sprintf("%s->next = %s;", base, tmp)),
		},
		Tail: "}",
	}
}

func emitCirLol(rng *rand.Rand, pr Profile) Stmt {
	fwd := []string{"next", "down"}
	all := []string{"next", "prev", "down", "up"}
	max := 7
	if pr.Mutate {
		max = 10
	}
	switch rng.Intn(max) {
	case 0:
		return copyStmt(rng)
	case 1:
		return nullStmt(rng)
	case 2:
		return newStmt(rng, "CirLOL")
	case 3, 4:
		return derefStmt(rng, all)
	case 5:
		return dataStmt(rng)
	case 6:
		return walkStmt(rng, fwd)
	case 7, 8:
		return storeStmt(rng, all)
	default:
		return spliceRingLOL(rng)
	}
}

// ---------------------------------------------------------------------------

var specs = map[string]*structureSpec{
	"TwoWayLL":   {typeName: "TwoWayLL", decl: twoWayDecl, builder: twoWayBuilder, mainSrc: twoWayMain, emit: emitList, callFwd: "next", callBack: "prev"},
	"PBinTree":   {typeName: "PBinTree", decl: treeDecl, builder: treeBuilder, mainSrc: treeMain, emit: emitTree, callFwd: "left", callBack: "parent"},
	"CirL":       {typeName: "CirL", decl: cirDecl, builder: cirBuilder, mainSrc: cirMain, emit: emitCir, callFwd: "next"},
	"LOLS":       {typeName: "LOLS", decl: lolsDecl, builder: lolsBuilder, mainSrc: lolsMain, emit: emitLols, callFwd: "down", callBack: "up"},
	"ThreadTree": {typeName: "ThreadTree", decl: ptreeDecl, builder: ptreeBuilder, mainSrc: ptreeMain, emit: emitPTree, callFwd: "left", callBack: "parent"},
	"SkipL":      {typeName: "SkipL", decl: skipDecl, builder: skipBuilder, mainSrc: skipMain, emit: emitSkip, callFwd: "next0"},
	"CirLOL":     {typeName: "CirLOL", decl: cirLolDecl, builder: cirLolBuilder, mainSrc: cirLolMain, emit: emitCirLol, callFwd: "down", callBack: "up"},
}

func specFor(name string) *structureSpec {
	s, ok := specs[name]
	if !ok {
		panic("gen: unknown structure " + name)
	}
	return s
}

package validation

import (
	"strings"
	"testing"

	"repro/internal/core/pathmatrix"
	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

const pBinTree = `
type PBinTree [down] {
    int data;
    PBinTree *left, *right is uniquely forward along down;
    PBinTree *parent is backward along down;
};
`

const twoWayLL = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
`

func analyze(t *testing.T, src, fn string) *Result {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("func %s missing", fn)
	}
	return FromResult(pathmatrix.Analyze(norm.Build(fi, info.Env), info.Env))
}

func TestSubtreeMoveInterval(t *testing.T) {
	r := analyze(t, pBinTree+`
void move(PBinTree *dest, PBinTree *src) {
    dest->left = src->left;
    src->left = NULL;
}`, "move")

	ivs := r.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("intervals = %d: %s", len(ivs), r.Report())
	}
	iv := ivs[0]
	if iv.BrokenBy.Stmt.String() != "dest->left = @t1" {
		t.Errorf("broken by %q", iv.BrokenBy.Stmt.String())
	}
	if iv.RepairedBy == nil || iv.RepairedBy.Stmt.String() != "src->left = NULL" {
		t.Errorf("repaired by %v", iv.RepairedBy)
	}
	if len(iv.Violations) == 0 {
		t.Error("interval missing violations")
	}
	if r.ValidEverywhere() {
		t.Error("ValidEverywhere should be false")
	}
	if !strings.Contains(iv.String(), "group-disjoint") {
		t.Errorf("interval string = %q", iv.String())
	}
}

func TestNeverRepaired(t *testing.T) {
	r := analyze(t, twoWayLL+`
void cyc(TwoWayLL *p) {
    TwoWayLL *q;
    q = p->next;
    q->next = p;
}`, "cyc")
	ivs := r.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	if ivs[0].RepairedBy != nil {
		t.Error("cycle store is never repaired")
	}
	if !strings.Contains(ivs[0].String(), "never repaired") {
		t.Errorf("string = %q", ivs[0].String())
	}
}

func TestCleanProgramValidEverywhere(t *testing.T) {
	r := analyze(t, twoWayLL+`
void append(TwoWayLL *tail) {
    TwoWayLL *n;
    n = new TwoWayLL;
    tail->next = n;
    n->prev = tail;
}`, "append")
	if !r.ValidEverywhere() {
		t.Errorf("append should be valid everywhere:\n%s", r.Report())
	}
	if len(r.Intervals()) != 0 {
		t.Errorf("intervals = %v", r.Intervals())
	}
	if !strings.Contains(r.Report(), "valid at every program point") {
		t.Errorf("report = %q", r.Report())
	}
}

func TestTemporaryBackwardBreak(t *testing.T) {
	r := analyze(t, twoWayLL+`
void link(TwoWayLL *tail) {
    TwoWayLL *n;
    n = new TwoWayLL;
    n->prev = tail;
    tail->next = n;
}`, "link")
	ivs := r.Intervals()
	if len(ivs) != 1 {
		t.Fatalf("intervals = %d:\n%s", len(ivs), r.Report())
	}
	if ivs[0].RepairedBy == nil {
		t.Error("tail->next = n should repair the Def 4.6 break")
	}
}

func TestValidBeforeAfter(t *testing.T) {
	r := analyze(t, pBinTree+`
void move(PBinTree *dest, PBinTree *src) {
    dest->left = src->left;
    src->left = NULL;
}`, "move")
	var breaking *norm.Node
	for _, n := range r.Graph.Nodes {
		if n.Kind == norm.NodeStmt && n.Stmt.String() == "dest->left = @t1" {
			breaking = n
		}
	}
	if breaking == nil {
		t.Fatal("breaking statement not found")
	}
	if !r.PM.BeforeNode(breaking).Valid() {
		t.Error("valid before the breaking store")
	}
	if r.ValidAfter(breaking) {
		t.Error("invalid after the breaking store")
	}
}

func TestFromResult(t *testing.T) {
	r := analyze(t, twoWayLL+`void f(TwoWayLL *p) { p = p->next; }`, "f")
	wrapped := FromResult(r.PM)
	if !wrapped.ValidEverywhere() {
		t.Error("wrapper broken")
	}
}

package alias

import (
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

const shiftSrc = twoWayLL + `
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
}
`

func buildGraph(t *testing.T, src, fn string) (*norm.Graph, *types.Info) {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("func %s missing", fn)
	}
	return norm.Build(fi, info.Env), info
}

func TestConservativeOracle(t *testing.T) {
	g, _ := buildGraph(t, shiftSrc, "shift")
	o := NewConservative(g)
	if o.Name() != "conservative" {
		t.Errorf("name = %q", o.Name())
	}
	n := g.Entry
	if !o.MayAlias(n, "hd", "p") {
		t.Error("conservative: same-type pointers may alias")
	}
	if o.MustAlias(n, "hd", "p") {
		t.Error("conservative: never must-alias distinct vars")
	}
	if !o.MustAlias(n, "hd", "hd") {
		t.Error("reflexive must")
	}
	if !o.LoopCarried(g.Loops[0], "p", "p") {
		t.Error("conservative: carried self-alias possible")
	}
	if !o.Valid(n) {
		t.Error("conservative oracle is always valid")
	}
}

func TestGPMOracleShiftLoop(t *testing.T) {
	g, info := buildGraph(t, shiftSrc, "shift")
	o := NewGPM(g, info.Env)
	loop := g.Loops[0]
	head := loop.Branch.Succs[0]

	if o.MayAlias(head, "hd", "p") {
		t.Error("gpm: hd and p must not alias inside the loop")
	}
	if o.LoopCarried(loop, "p", "p") {
		t.Error("gpm: p advances every iteration (next is uniquely forward)")
	}
	if o.LoopCarried(loop, "p", "hd") {
		t.Error("gpm: p never reaches back to hd")
	}
	if !o.LoopCarried(loop, "hd", "hd") {
		t.Error("gpm: hd is loop-invariant, so it aliases itself across iterations")
	}
	if !o.Valid(head) {
		t.Error("gpm: shift loop keeps the abstraction valid")
	}
}

func TestClassicOracleConservativeOnSameLoop(t *testing.T) {
	g, info := buildGraph(t, shiftSrc, "shift")
	o := NewClassic(g, info.Env)
	loop := g.Loops[0]
	head := loop.Branch.Succs[0]
	if !o.MayAlias(head, "hd", "p") {
		t.Error("classic (no ADDS): hd and p are possible aliases")
	}
	if !o.LoopCarried(loop, "p", "p") {
		t.Error("classic: cannot prove the loop advances")
	}
	if o.Name() != "classic-pm" {
		t.Errorf("name = %q", o.Name())
	}
}

func TestOracleContrastIsTheHeadlineResult(t *testing.T) {
	// The paper's core claim in one test: the same program, the same
	// engine; with ADDS the false loop-carried dependence disappears.
	g, info := buildGraph(t, shiftSrc, "shift")
	adds := NewGPM(g, info.Env)
	classic := NewClassic(g, info.Env)
	cons := NewConservative(g)
	loop := g.Loops[0]

	carried := func(o Oracle) bool { return o.LoopCarried(loop, "p", "p") }
	if carried(adds) {
		t.Error("adds+gpm should prove iterations independent")
	}
	if !carried(classic) || !carried(cons) {
		t.Error("baselines should both fail to prove independence")
	}
}

func TestGPMIterationMatrixCached(t *testing.T) {
	g, info := buildGraph(t, shiftSrc, "shift")
	o := NewGPM(g, info.Env)
	loop := g.Loops[0]
	o.LoopCarried(loop, "p", "p")
	im := o.res.IterationMatrix(loop)
	o.LoopCarried(loop, "hd", "p")
	if o.res.IterationMatrix(loop) != im {
		t.Error("iteration matrix should be computed once per loop")
	}
}

func TestDifferentRecordTypesNeverAliasConservative(t *testing.T) {
	src := twoWayLL + `
type Other [Y] {
    Other *kid is forward along Y;
};
void f(TwoWayLL *a, Other *b) { a = a; }
`
	g, _ := buildGraph(t, src, "f")
	o := NewConservative(g)
	if o.MayAlias(g.Entry, "a", "b") {
		t.Error("different record types cannot alias even conservatively")
	}
}

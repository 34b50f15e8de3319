package xform

import (
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

const twoWayLL = `
type TwoWayLL [X] {
    int x;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
`

// shiftSrc is the paper's Section 5.2 loop.
const shiftSrc = twoWayLL + `
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->x = p->x - hd->x;
        p = p->next;
    }
}
`

// initSrc is [HG92]'s list initialization loop.
const initSrc = twoWayLL + `
void initlist(TwoWayLL *p) {
    while (p != NULL) {
        p->x = 0;
        p = p->next;
    }
}
`

type fixture struct {
	info *types.Info
	fi   *types.FuncInfo
	prog *ir.Program
	loop *ir.LoopInfo
	g    *norm.Graph
}

func setup(t *testing.T, src, fn string) *fixture {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("func %s missing", fn)
	}
	prog := ir.Build(fi, info.Env)
	g := norm.Build(fi, info.Env)
	return &fixture{info: info, fi: fi, prog: prog, loop: prog.Loops[0], g: g}
}

func (f *fixture) gpmOpts() depgraph.Options {
	return depgraph.Options{
		Oracle:   alias.NewGPM(f.g, f.info.Env),
		NormLoop: f.g.Loops[f.loop.SrcID],
		Env:      f.info.Env,
		VarTypes: f.fi.Vars,
	}
}

func (f *fixture) consOpts() depgraph.Options {
	return depgraph.Options{
		Oracle:   alias.NewConservative(f.g),
		NormLoop: f.g.Loops[f.loop.SrcID],
		Env:      f.info.Env,
		VarTypes: f.fi.Vars,
	}
}

// buildList makes a concrete list: values 10, 20, 30, ...
func buildList(h *interp.Heap, n int) *interp.Node {
	var head, prev *interp.Node
	for i := 0; i < n; i++ {
		node := h.New("TwoWayLL")
		node.Ints["x"] = int64(10 * (i + 1))
		if prev == nil {
			head = node
		} else {
			prev.Ptrs["next"] = node
			node.Ptrs["prev"] = prev
		}
		prev = node
	}
	return head
}

// listValues reads the x fields along next.
func listValues(hd *interp.Node) []int64 {
	var out []int64
	for n := hd; n != nil; n = n.Ptrs["next"] {
		out = append(out, n.Ints["x"])
	}
	return out
}

func TestLICMHoistsInvariantLoadUnderGPM(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	out, loop, hoisted := LICM(f.prog, f.loop, f.gpmOpts())
	if len(hoisted) != 1 || hoisted[0].Field != "x" || hoisted[0].Src1 != "hd" {
		t.Fatalf("hoisted = %v\n%s", hoisted, out.String())
	}
	// The hoisted load sits before the loop head label.
	headIdx := out.FindLabel(loop.HeadLabel)
	found := false
	for _, in := range out.Instrs[:headIdx] {
		if in.Op == ir.Load && in.Src1 == "hd" {
			found = true
		}
	}
	if !found {
		t.Errorf("load hd->x not in preheader:\n%s", out.String())
	}
	// Semantics preserved.
	assertSameSemantics(t, f.prog, out, 9)
}

func TestLICMBlockedUnderConservative(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	_, _, hoisted := LICM(f.prog, f.loop, f.consOpts())
	if len(hoisted) != 0 {
		t.Errorf("conservative aliasing must block hoisting hd->x (it may alias p->x), got %v", hoisted)
	}
}

// assertSameSemantics runs both programs on identical fresh lists and
// compares the resulting heaps.
func assertSameSemantics(t *testing.T, a, b *ir.Program, n int) {
	t.Helper()
	h1 := interp.NewHeap()
	hd1 := buildList(h1, n)
	if _, err := machine.RunScalar(a, machine.DefaultScalar(), h1, map[string]machine.Word{"hd": machine.RefWord(hd1), "p": machine.RefWord(hd1)}); err != nil {
		t.Fatalf("original: %v", err)
	}
	h2 := interp.NewHeap()
	hd2 := buildList(h2, n)
	if _, err := machine.RunScalar(b, machine.DefaultScalar(), h2, map[string]machine.Word{"hd": machine.RefWord(hd2), "p": machine.RefWord(hd2)}); err != nil {
		t.Fatalf("transformed: %v\n%s", err, b.String())
	}
	v1, v2 := listValues(hd1), listValues(hd2)
	if len(v1) != len(v2) {
		t.Fatalf("list lengths differ: %v vs %v", v1, v2)
	}
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("heaps differ at %d: %v vs %v", i, v1, v2)
		}
	}
}

func TestRenameAdvance(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	out, loop, primed, ok := RenameAdvance(f.prog, f.loop)
	if !ok || primed != "p'" {
		t.Fatalf("rename failed: %v %q", ok, primed)
	}
	if first := out.Instrs[loop.BodyStart]; first.Op != ir.Load || first.Dst != "p'" {
		t.Errorf("renamed load not at body start:\n%s", out.String())
	}
	if last := out.Instrs[loop.BodyEnd-1]; last.Op != ir.Move || last.Src1 != "p'" || last.Dst != "p" {
		t.Errorf("copy not at body end:\n%s", out.String())
	}
	assertSameSemantics(t, f.prog, out, 8)
}

func TestSpeculativeHoist(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	renamed, loop, _, ok := RenameAdvance(f.prog, f.loop)
	if !ok {
		t.Fatal("rename failed")
	}
	out, loop2, ok := SpeculativeHoist(renamed, loop)
	if !ok {
		t.Fatal("hoist failed")
	}
	// The advance load now precedes the exit test.
	test := out.Instrs[loop2.TestStart]
	if test.Op != ir.Load || test.Dst != "p'" {
		t.Errorf("advance not hoisted above the test:\n%s", out.String())
	}
	// The scalar machine faults on the speculative NULL load, so validate
	// on the VLIW machine with speculative loads instead.
	h1 := interp.NewHeap()
	hd1 := buildList(h1, 6)
	if _, err := machine.RunScalar(f.prog, machine.DefaultScalar(), h1, map[string]machine.Word{"hd": machine.RefWord(hd1)}); err != nil {
		t.Fatal(err)
	}
	h2 := interp.NewHeap()
	hd2 := buildList(h2, 6)
	if _, err := machine.RunVLIW(machine.Sequentialize(out), machine.DefaultVLIW(), h2, map[string]machine.Word{"hd": machine.RefWord(hd2)}); err != nil {
		t.Fatalf("hoisted program: %v\n%s", err, out.String())
	}
	v1, v2 := listValues(hd1), listValues(hd2)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("heaps differ: %v vs %v", v1, v2)
		}
	}
}

// TestPaperTheoreticalSpeedup reproduces the Section 5.2 headline. The
// paper's sequence — hoist hd->x, rename the advance, speculatively hoist
// it — leaves five operations (S1..S5) that pipeline at II=1 under
// ADDS+GPM: a theoretical speedup of 5. Under conservative analysis the
// carried store->load dependences keep the recurrence long.
func TestPaperTheoreticalSpeedup(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	p1, l1, hoisted := LICM(f.prog, f.loop, f.gpmOpts())
	if len(hoisted) != 1 {
		t.Fatalf("LICM hoisted %d loads", len(hoisted))
	}
	p2, l2, _, ok := RenameAdvance(p1, l1)
	if !ok {
		t.Fatal("rename failed")
	}
	p3, l3, ok := SpeculativeHoist(p2, l2)
	if !ok {
		t.Fatal("hoist failed")
	}

	info := AnalyzePipeline(p3, l3, f.gpmOpts(), 8)
	if !info.OK {
		t.Fatalf("pipelining should be legal under GPM: %+v", info)
	}
	if info.BodyOps != 5 {
		t.Errorf("BodyOps = %d, want 5 (S1..S5)\n%s", info.BodyOps, p3.String())
	}
	if info.II != 1 {
		t.Errorf("II = %d, want 1", info.II)
	}
	if info.Theoretic != 5.0 {
		t.Errorf("theoretical speedup = %.1f, want 5.0", info.Theoretic)
	}

	// The raw loop under conservative aliasing: blocked and serialized.
	cons := AnalyzePipeline(f.prog, f.loop, f.consOpts(), 8)
	if cons.OK {
		t.Error("conservative analysis must block pipelining")
	}
	if cons.RecMII < 3 {
		t.Errorf("conservative RecMII = %d, want >= 3 (serialized)", cons.RecMII)
	}
}

func TestEmitPipelinedCorrectness(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	pl, err := EmitPipelined(f.prog, f.loop, f.gpmOpts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 3, 5, 10, 50} {
		h1 := interp.NewHeap()
		hd1 := buildList(h1, n+1) // +1: hd itself is not processed
		if _, err := machine.RunScalar(f.prog, machine.DefaultScalar(), h1, map[string]machine.Word{"hd": machine.RefWord(hd1)}); err != nil {
			t.Fatal(err)
		}
		h2 := interp.NewHeap()
		hd2 := buildList(h2, n+1)
		if _, err := machine.RunVLIW(pl.Prog, machine.DefaultVLIW(), h2, map[string]machine.Word{"hd": machine.RefWord(hd2)}); err != nil {
			t.Fatalf("n=%d: %v\n%s", n, err, pl.Prog.String())
		}
		v1, v2 := listValues(hd1), listValues(hd2)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("n=%d: heaps differ at %d: %v vs %v", n, i, v1, v2)
			}
		}
	}
}

func TestEmitPipelinedSpeedupMeasured(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	pl, err := EmitPipelined(f.prog, f.loop, f.gpmOpts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	n := 200
	h1 := interp.NewHeap()
	hd1 := buildList(h1, n)
	seq, err := machine.RunVLIW(machine.Sequentialize(f.prog), machine.DefaultVLIW(), h1, map[string]machine.Word{"hd": machine.RefWord(hd1)})
	if err != nil {
		t.Fatal(err)
	}
	h2 := interp.NewHeap()
	hd2 := buildList(h2, n)
	pip, err := machine.RunVLIW(pl.Prog, machine.DefaultVLIW(), h2, map[string]machine.Word{"hd": machine.RefWord(hd2)})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(seq.Cycles) / float64(pip.Cycles)
	if speedup < 4.5 {
		t.Errorf("measured speedup %.2f (seq %d, pipelined %d cycles); want >= 4.5 "+
			"(paper claims theoretical 5)", speedup, seq.Cycles, pip.Cycles)
	}
}

func TestEmitPipelinedRejectedConservative(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	if _, err := EmitPipelined(f.prog, f.loop, f.consOpts(), 8); err == nil {
		t.Fatal("conservative oracle must block pipelining")
	}
}

func TestEmitPipelinedWidthTooSmall(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	if _, err := EmitPipelined(f.prog, f.loop, f.gpmOpts(), 4); err == nil {
		t.Fatal("width 4 cannot hold the 8-op kernel")
	}
}

func TestEmitPipelinedChain0(t *testing.T) {
	f := setup(t, initSrc, "initlist")
	pl, err := EmitPipelined(f.prog, f.loop, f.gpmOpts(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 7, 30} {
		h1 := interp.NewHeap()
		hd1 := buildList(h1, n)
		args := map[string]machine.Word{"p": machine.RefWord(hd1)}
		if _, err := machine.RunScalar(f.prog, machine.DefaultScalar(), h1, args); err != nil {
			t.Fatal(err)
		}
		h2 := interp.NewHeap()
		hd2 := buildList(h2, n)
		if _, err := machine.RunVLIW(pl.Prog, machine.DefaultVLIW(), h2, map[string]machine.Word{"p": machine.RefWord(hd2)}); err != nil {
			t.Fatalf("n=%d: %v\n%s", n, err, pl.Prog.String())
		}
		v1, v2 := listValues(hd1), listValues(hd2)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("n=%d: differ: %v vs %v", n, v1, v2)
			}
		}
	}
}

func TestUnrollCorrectness(t *testing.T) {
	f := setup(t, initSrc, "initlist")
	for _, k := range []int{1, 2, 3, 4, 8} {
		u, err := Unroll(f.prog, f.loop, k, f.gpmOpts())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 1, 2, 3, 7, 100} {
			h1 := interp.NewHeap()
			hd1 := buildList(h1, n)
			args1 := map[string]machine.Word{"p": machine.RefWord(hd1)}
			if _, err := machine.RunScalar(f.prog, machine.DefaultScalar(), h1, args1); err != nil {
				t.Fatal(err)
			}
			h2 := interp.NewHeap()
			hd2 := buildList(h2, n)
			args2 := map[string]machine.Word{"p": machine.RefWord(hd2)}
			if _, err := machine.RunScalar(u, machine.DefaultScalar(), h2, args2); err != nil {
				t.Fatalf("k=%d n=%d: %v\n%s", k, n, err, u.String())
			}
			v1, v2 := listValues(hd1), listValues(hd2)
			for i := range v1 {
				if v1[i] != v2[i] {
					t.Fatalf("k=%d n=%d: differ: %v vs %v", k, n, v1, v2)
				}
			}
		}
	}
}

// TestUnrollSpeedupShape reproduces [HG92]: 3-unrolling a length-100 list
// loop on the scalar machine gives a substantial speedup (the paper cites
// 47%; the exact number depends on the machine, the shape must hold).
func TestUnrollSpeedupShape(t *testing.T) {
	f := setup(t, initSrc, "initlist")
	u3, err := Unroll(f.prog, f.loop, 3, f.gpmOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := 100
	h1 := interp.NewHeap()
	hd1 := buildList(h1, n)
	base, err := machine.RunScalar(f.prog, machine.DefaultScalar(), h1, map[string]machine.Word{"p": machine.RefWord(hd1)})
	if err != nil {
		t.Fatal(err)
	}
	h2 := interp.NewHeap()
	hd2 := buildList(h2, n)
	fast, err := machine.RunScalar(u3, machine.DefaultScalar(), h2, map[string]machine.Word{"p": machine.RefWord(hd2)})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(base.Cycles)/float64(fast.Cycles) - 1
	if speedup < 0.25 {
		t.Errorf("3-unroll speedup = %.0f%%, want >= 25%% (paper cites 47%%); base %d fast %d",
			speedup*100, base.Cycles, fast.Cycles)
	}
}

func TestCompactCorrectnessAndSpeedup(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	for _, w := range []int{1, 2, 4} {
		c := Compact(f.prog, w)
		h1 := interp.NewHeap()
		hd1 := buildList(h1, 12)
		if _, err := machine.RunScalar(f.prog, machine.DefaultScalar(), h1, map[string]machine.Word{"hd": machine.RefWord(hd1)}); err != nil {
			t.Fatal(err)
		}
		h2 := interp.NewHeap()
		hd2 := buildList(h2, 12)
		if _, err := machine.RunVLIW(c, machine.DefaultVLIW(), h2, map[string]machine.Word{"hd": machine.RefWord(hd2)}); err != nil {
			t.Fatalf("w=%d: %v\n%s", w, err, c.String())
		}
		v1, v2 := listValues(hd1), listValues(hd2)
		for i := range v1 {
			if v1[i] != v2[i] {
				t.Fatalf("w=%d: heaps differ", w)
			}
		}
	}
	// Wider compaction should not be slower.
	run := func(w int) int64 {
		h := interp.NewHeap()
		hd := buildList(h, 50)
		r, err := machine.RunVLIW(Compact(f.prog, w), machine.DefaultVLIW(), h, map[string]machine.Word{"hd": machine.RefWord(hd)})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if run(4) > run(1) {
		t.Error("width-4 compaction slower than width-1")
	}
}

func TestMatchListLoopRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
		fn   string
	}{
		{"inner-branch", twoWayLL + `
void f(TwoWayLL *p) {
    while (p != NULL) {
        if (p->x > 0) { p->x = 0; }
        p = p->next;
    }
}`, "f"},
		{"no-store", twoWayLL + `
void f(TwoWayLL *p) {
    int s;
    s = 0;
    while (p != NULL) {
        s = s + p->x;
        p = p->next;
    }
}`, "f"},
	}
	for _, c := range cases {
		f := setup(t, c.src, c.fn)
		if _, err := matchListLoop(f.prog, f.loop); err == nil {
			t.Errorf("%s: pattern should be rejected", c.name)
		}
	}
}

func TestPipelineInfoString(t *testing.T) {
	f := setup(t, shiftSrc, "shift")
	info := AnalyzePipeline(f.prog, f.loop, f.gpmOpts(), 8)
	if info.Stages < 1 || info.ResMII != 1 {
		t.Errorf("info = %+v", info)
	}
	if !strings.Contains(f.prog.String(), "load p->next, p") {
		t.Error("program print sanity")
	}
}

// TestUnrollPlainLabelRenaming: a loop whose body lowers to internal labels
// (an if/else) takes the plain-replication path, where every copy's labels
// must be renamed and its branches retargeted within that copy. Without the
// renaming all copies share one label name, so a body branch in copy 0
// resolves into a later copy and the unrolled program skips work.
func TestUnrollPlainLabelRenaming(t *testing.T) {
	src := twoWayLL + `
void f(TwoWayLL *p) {
    while (p != NULL) {
        if (p->x > 15) {
            p->x = p->x - 100;
        } else {
            p->x = p->x + 1;
        }
        p = p->next;
    }
}
`
	f := setup(t, src, "f")
	if _, err := matchListLoop(f.prog, f.loop); err == nil {
		t.Fatal("fixture must take the plain-unroll path")
	}
	for _, k := range []int{2, 3} {
		u, err := Unroll(f.prog, f.loop, k, f.gpmOpts())
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, in := range u.Instrs {
			if in.Op == ir.Label {
				if seen[in.Name] {
					t.Fatalf("k=%d: duplicate label %q\n%s", k, in.Name, u.String())
				}
				seen[in.Name] = true
			}
		}
		for _, n := range []int{0, 1, 2, 3, 5, 10} {
			h1 := interp.NewHeap()
			hd1 := buildList(h1, n)
			if _, err := machine.RunScalar(f.prog, machine.DefaultScalar(), h1, map[string]machine.Word{"p": machine.RefWord(hd1)}); err != nil {
				t.Fatal(err)
			}
			h2 := interp.NewHeap()
			hd2 := buildList(h2, n)
			if _, err := machine.RunScalar(u, machine.DefaultScalar(), h2, map[string]machine.Word{"p": machine.RefWord(hd2)}); err != nil {
				t.Fatalf("k=%d n=%d: %v\n%s", k, n, err, u.String())
			}
			v1, v2 := listValues(hd1), listValues(hd2)
			if len(v1) != len(v2) {
				t.Fatalf("k=%d n=%d: list lengths differ", k, n)
			}
			for i := range v1 {
				if v1[i] != v2[i] {
					t.Fatalf("k=%d n=%d: values differ: %v vs %v", k, n, v1, v2)
				}
			}
		}
	}
}

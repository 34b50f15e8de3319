package machine

import (
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

const listDecl = `
type List [X] {
    int x;
    List *next is uniquely forward along X;
};
`

func compile(t *testing.T, src, fn string) *ir.Program {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	return ir.Build(info.Func(fn), info.Env)
}

// buildList allocates a concrete list of n nodes with x = 10*(i+1).
func buildList(h *interp.Heap, n int) *interp.Node {
	var head, prev *interp.Node
	for i := 0; i < n; i++ {
		node := h.New("List")
		node.Ints["x"] = int64(10 * (i + 1))
		if prev == nil {
			head = node
		} else {
			prev.Ptrs["next"] = node
		}
		prev = node
	}
	return head
}

func TestScalarArithmetic(t *testing.T) {
	p := compile(t, `int f(int a, int b) { return a * b + a - b; }`, "f")
	res, err := RunScalar(p, DefaultScalar(), interp.NewHeap(), map[string]Word{
		"a": IntWord(6), "b": IntWord(7),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Int != 6*7+6-7 {
		t.Errorf("ret = %d", res.Ret.Int)
	}
}

func TestScalarListSum(t *testing.T) {
	p := compile(t, listDecl+`
int sum(List *hd) {
    List *p;
    int total;
    total = 0;
    p = hd;
    while (p != NULL) {
        total = total + p->x;
        p = p->next;
    }
    return total;
}`, "sum")
	h := interp.NewHeap()
	hd := buildList(h, 5)
	res, err := RunScalar(p, DefaultScalar(), h, map[string]Word{"hd": RefWord(hd)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Int != 10+20+30+40+50 {
		t.Errorf("sum = %d", res.Ret.Int)
	}
	if res.Cycles <= res.Instrs {
		t.Errorf("expected stalls/penalties: cycles=%d instrs=%d", res.Cycles, res.Instrs)
	}
}

func TestScalarLoadUseStall(t *testing.T) {
	// load immediately followed by a use must stall; an independent
	// instruction in between hides the latency.
	h := interp.NewHeap()
	n := h.New("List")
	n.Ints["x"] = 5

	direct := &ir.Program{Instrs: []*ir.Instr{
		{Op: ir.Load, Dst: "R1", Src1: "p", Field: "x"},
		{Op: ir.Add, Src1: "R1", Src2: "R1", Dst: "R2"},
		{Op: ir.Ret, Src1: "R2"},
	}}
	hidden := &ir.Program{Instrs: []*ir.Instr{
		{Op: ir.Load, Dst: "R1", Src1: "p", Field: "x"},
		{Op: ir.LoadImm, Imm: 1, Dst: "R9"},
		{Op: ir.Add, Src1: "R1", Src2: "R1", Dst: "R2"},
		{Op: ir.Ret, Src1: "R2"},
	}}
	args := map[string]Word{"p": RefWord(n)}
	r1, err := RunScalar(direct, DefaultScalar(), h, args)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunScalar(hidden, DefaultScalar(), h, args)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stalls == 0 {
		t.Error("direct use after load must stall")
	}
	if r2.Stalls != 0 {
		t.Error("independent instruction must hide the load latency")
	}
	if r1.Ret.Int != 10 || r2.Ret.Int != 10 {
		t.Error("wrong results")
	}
}

func TestScalarBranchPenalty(t *testing.T) {
	// A taken goto costs BranchPenalty extra cycles.
	p := &ir.Program{Instrs: []*ir.Instr{
		{Op: ir.Goto, Target: "L"},
		{Op: ir.Label, Name: "skipped"},
		{Op: ir.Label, Name: "L"},
		{Op: ir.Ret},
	}}
	cfg := DefaultScalar()
	res, err := RunScalar(p, cfg, interp.NewHeap(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != int64(2+cfg.BranchPenalty) {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestScalarNullLoadFaults(t *testing.T) {
	p := &ir.Program{Instrs: []*ir.Instr{
		{Op: ir.Load, Dst: "R1", Src1: "p", Field: "x"},
		{Op: ir.Ret},
	}}
	_, err := RunScalar(p, DefaultScalar(), interp.NewHeap(), map[string]Word{"p": Null})
	if err == nil || !strings.Contains(err.Error(), "NULL") {
		t.Errorf("err = %v", err)
	}
}

func TestScalarCycleBudget(t *testing.T) {
	p := &ir.Program{Instrs: []*ir.Instr{
		{Op: ir.Label, Name: "L"},
		{Op: ir.Goto, Target: "L"},
	}}
	cfg := DefaultScalar()
	cfg.MaxCycles = 100
	_, err := RunScalar(p, cfg, interp.NewHeap(), nil)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v", err)
	}
}

func TestScalarNewAndStore(t *testing.T) {
	p := compile(t, listDecl+`
int f() {
    List *p;
    p = new List;
    p->x = 42;
    return p->x;
}`, "f")
	h := interp.NewHeap()
	res, err := RunScalar(p, DefaultScalar(), h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Int != 42 || h.Size() != 1 {
		t.Errorf("ret=%d allocs=%d", res.Ret.Int, h.Size())
	}
}

func TestVLIWReadBeforeWrite(t *testing.T) {
	// A swap in one bundle must work: both moves read old values.
	prog := NewVLIWProgram(4)
	prog.MustAdd(Bundle{
		{Op: ir.Move, Src1: "a", Dst: "b"},
		{Op: ir.Move, Src1: "b", Dst: "a"},
	})
	prog.MustAdd(Bundle{{Op: ir.Ret, Src1: "a"}})
	res, err := RunVLIW(prog, DefaultVLIW(), interp.NewHeap(), map[string]Word{
		"a": IntWord(1), "b": IntWord(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret.Int != 2 || res.Regs["b"].Int != 1 {
		t.Errorf("swap failed: a=%v b=%v", res.Regs["a"], res.Regs["b"])
	}
	if res.Cycles != 2 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestVLIWSpeculativeLoad(t *testing.T) {
	prog := NewVLIWProgram(2)
	prog.MustAdd(Bundle{{Op: ir.Load, Dst: "R1", Src1: "p", Field: "next"}})
	prog.MustAdd(Bundle{{Op: ir.Ret, Src1: "R1"}})
	res, err := RunVLIW(prog, DefaultVLIW(), interp.NewHeap(), map[string]Word{"p": Null})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ret.IsRef || res.Ret.Ref != nil {
		t.Errorf("speculative NULL load should yield NULL, got %v", res.Ret)
	}
	cfg := DefaultVLIW()
	cfg.SpeculativeLoads = false
	if _, err := RunVLIW(prog, cfg, interp.NewHeap(), map[string]Word{"p": Null}); err == nil {
		t.Error("non-speculative machine must fault")
	}
}

func TestVLIWStoreNeverSpeculative(t *testing.T) {
	prog := NewVLIWProgram(2)
	prog.MustAdd(Bundle{{Op: ir.Store, Src1: "p", Src2: "R1", Field: "x"}})
	_, err := RunVLIW(prog, DefaultVLIW(), interp.NewHeap(), map[string]Word{"p": Null})
	if err == nil {
		t.Error("store through NULL must fault even with speculation on")
	}
}

func TestVLIWBranchAndLabels(t *testing.T) {
	prog := NewVLIWProgram(2)
	prog.Mark("top")
	prog.MustAdd(Bundle{
		{Op: ir.Sub, Src1: "n", Src2: "one", Dst: "n"},
		{Op: ir.Br, Rel: ir.GT, Src1: "n", Src2: "one", Target: "top"},
	})
	prog.MustAdd(Bundle{{Op: ir.Ret, Src1: "n"}})
	res, err := RunVLIW(prog, DefaultVLIW(), interp.NewHeap(), map[string]Word{
		"n": IntWord(10), "one": IntWord(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Branch reads the OLD n each cycle: loop exits when old n-1... trace:
	// it decrements until the pre-cycle n is <= 1.
	if res.Ret.Int != 0 {
		t.Errorf("n = %d", res.Ret.Int)
	}
	if res.Cycles != 10+1 {
		t.Errorf("cycles = %d", res.Cycles)
	}
}

func TestVLIWWidthEnforced(t *testing.T) {
	prog := NewVLIWProgram(1)
	err := prog.Add(Bundle{{Op: ir.Nop}, {Op: ir.Nop}})
	if err == nil {
		t.Error("over-wide bundle accepted")
	}
}

func TestSequentializeMatchesScalarResults(t *testing.T) {
	src := listDecl + `
int f(List *hd) {
    List *p;
    int total;
    total = 0;
    p = hd;
    while (p != NULL) {
        total = total + p->x;
        p = p->next;
    }
    return total;
}`
	p := compile(t, src, "f")
	h1 := interp.NewHeap()
	hd1 := buildList(h1, 7)
	rs, err := RunScalar(p, DefaultScalar(), h1, map[string]Word{"hd": RefWord(hd1)})
	if err != nil {
		t.Fatal(err)
	}
	h2 := interp.NewHeap()
	hd2 := buildList(h2, 7)
	rv, err := RunVLIW(Sequentialize(p), DefaultVLIW(), h2, map[string]Word{"hd": RefWord(hd2)})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ret.Int != rv.Ret.Int {
		t.Errorf("scalar %d != vliw %d", rs.Ret.Int, rv.Ret.Int)
	}
}

func TestWordHelpers(t *testing.T) {
	if Null.String() != "NULL" || IntWord(7).String() != "7" {
		t.Error("String wrong")
	}
}

func TestVLIWProgramString(t *testing.T) {
	prog := NewVLIWProgram(2)
	prog.Mark("kernel")
	prog.MustAdd(Bundle{{Op: ir.Nop}, {Op: ir.Move, Src1: "a", Dst: "b"}})
	s := prog.String()
	if !strings.Contains(s, "kernel:") || !strings.Contains(s, "nop | move a, b") {
		t.Errorf("String:\n%s", s)
	}
}

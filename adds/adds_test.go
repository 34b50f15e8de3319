package adds

import (
	"context"
	"slices"
	"strings"
	"testing"
)

const shiftSrc = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
}
`

func TestLoadErrors(t *testing.T) {
	if _, err := Load([]byte("void f() { x = ; }")); err == nil {
		t.Error("syntax error not reported")
	}
	if _, err := Load([]byte("void f() { q = NULL; }")); err == nil {
		t.Error("type error not reported")
	}
}

func TestFacadePipeline(t *testing.T) {
	u := MustLoad(shiftSrc)
	an := u.MustAnalyze("shift")

	if an.Loops() != 1 {
		t.Fatalf("loops = %d", an.Loops())
	}
	m := an.LoopMatrix(0)
	if got := m.Entry("hd", "p").String(); got != "next+" {
		t.Errorf("PM(hd,p) = %q", got)
	}
	im := an.IterationMatrix(0)
	if im.MayAlias("p'", "p") {
		t.Error("iterates falsely alias")
	}

	dgGPM := an.Dependences(0, an.GPMOracle())
	dgCons := an.Dependences(0, an.ConservativeOracle())
	if len(dgGPM.CarriedMemEdges()) != 0 {
		t.Error("GPM should remove carried mem deps")
	}
	if len(dgCons.CarriedMemEdges()) == 0 {
		t.Error("conservative should keep carried mem deps")
	}

	prog, info, err := an.Pipeline(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if info.Theoretic != 5.0 {
		t.Errorf("theoretical speedup = %v", info.Theoretic)
	}
	if !strings.Contains(prog.String(), "kernel") {
		t.Error("pipelined program missing kernel")
	}
}

func TestFacadeRunAndCheck(t *testing.T) {
	u := MustLoad(shiftSrc)
	an := u.MustAnalyze("shift")

	// Build a concrete list via the interpreter's heap helpers.
	h := NewHeap()
	var head, prev *Node
	for i := 0; i < 6; i++ {
		n := h.New("TwoWayLL")
		n.Ints["data"] = int64(i * 10)
		if prev == nil {
			head = n
		} else {
			prev.Ptrs["next"] = n
			n.Ptrs["prev"] = prev
		}
		prev = n
	}
	if vs := u.CheckHeap(head); len(vs) != 0 {
		t.Fatalf("heap invalid: %v", vs[0])
	}
	res, err := RunScalar(an.IR(), h, map[string]Word{"hd": RefWord(head)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("no cycles measured")
	}
	// Every later node had data reduced by head's 0... head data is 0, so
	// values unchanged; check the run executed by instruction count.
	if res.Instrs < 10 {
		t.Errorf("instrs = %d", res.Instrs)
	}
}

func TestFacadeInterp(t *testing.T) {
	u := MustLoad(shiftSrc + `
int sum(TwoWayLL *hd) {
    TwoWayLL *p;
    int s;
    s = 0;
    p = hd;
    while (p != NULL) {
        s = s + p->data;
        p = p->next;
    }
    return s;
}`)
	in := u.Interp()
	a := in.Heap.New("TwoWayLL")
	b := in.Heap.New("TwoWayLL")
	a.Ints["data"], b.Ints["data"] = 4, 5
	a.Ptrs["next"] = b
	b.Ptrs["prev"] = a
	v, err := in.Call("sum", PtrVal(a))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 9 {
		t.Errorf("sum = %d", v.Int)
	}
}

func TestFacadeUnroll(t *testing.T) {
	u := MustLoad(shiftSrc)
	an := u.MustAnalyze("shift")
	up, err := an.UnrollCtx(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if up == nil || len(up.Instrs) <= len(an.IR().Instrs) {
		t.Error("unrolled program should be longer")
	}
}

func TestFacadeOracles(t *testing.T) {
	u := MustLoad(shiftSrc)
	an := u.MustAnalyze("shift")
	klimit, err := an.OracleNamed(context.Background(), "klimit", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Oracle{
		an.GPMOracle(), an.ClassicOracle(), an.ConservativeOracle(), klimit,
	} {
		if o.Name() == "" {
			t.Error("unnamed oracle")
		}
	}
}

func TestFacadeExperimentLookup(t *testing.T) {
	defs := ExperimentDefs()
	i := slices.IndexFunc(defs, func(d ExperimentDef) bool { return d.ID == "E4" })
	if i < 0 {
		t.Fatal("E4 missing from the registry")
	}
	if r := defs[i].Run(); !strings.Contains(r.Format(), "next+") {
		t.Error("E4 report lacks next+")
	}
	if slices.ContainsFunc(defs, func(d ExperimentDef) bool { return d.ID == "nope" }) {
		t.Error("bogus experiment id")
	}
}

func TestAnalyzeUnknownFunction(t *testing.T) {
	u := MustLoad(shiftSrc)
	if _, err := u.AnalyzeOpt(context.Background(), "nope"); err == nil {
		t.Error("unknown function not reported")
	}
}

package ir

import (
	"strings"
	"testing"

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

// shiftSrc matches the paper's Section 5.2 loop (field named x as there).
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

func build(t *testing.T, src, fn string) *Program {
	t.Helper()
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		t.Fatalf("func %s missing", fn)
	}
	return Build(fi, info.Env)
}

// TestPaperLoopShape reproduces the pseudo-assembly of Section 5.2:
//
//	S1 if p==NULL goto done
//	S2 load p->x, R1
//	S3 load hd->x, R2
//	S4 sub R1, R2, R3
//	S5 store R3, p->x
//	S6 load p->next, p
//	S7 goto S1
func TestPaperLoopShape(t *testing.T) {
	p := build(t, shiftSrc, "shift")
	if len(p.Loops) != 1 {
		t.Fatalf("loops = %d", len(p.Loops))
	}
	l := p.Loops[0]
	var got []string
	for _, in := range p.Instrs[l.TestStart : l.BodyEnd+1] {
		got = append(got, in.String())
	}
	want := []string{
		"if p == NULL goto " + l.ExitLabel,
		"load p->x, R1",
		"load hd->x, R2",
		"sub R1, R2, R3",
		"store R3, p->x",
		"load p->next, p",
		"goto " + l.HeadLabel,
	}
	if len(got) != len(want) {
		t.Fatalf("body:\n%s", strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("instr %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}
}

func TestDefsAndUses(t *testing.T) {
	cases := []struct {
		in   Instr
		def  string
		uses []string
	}{
		{Instr{Op: Load, Dst: "R1", Src1: "p", Field: "x"}, "R1", []string{"p"}},
		{Instr{Op: Store, Src1: "p", Src2: "R3", Field: "x"}, "", []string{"p", "R3"}},
		{Instr{Op: Sub, Src1: "R1", Src2: "R2", Dst: "R3"}, "R3", []string{"R1", "R2"}},
		{Instr{Op: Br, Rel: EQ, Src1: "p", Src2: ""}, "", []string{"p"}},
		{Instr{Op: Move, Src1: "a", Dst: "b"}, "b", []string{"a"}},
		{Instr{Op: LoadImm, Imm: 4, Dst: "c"}, "c", nil},
		{Instr{Op: New, TypeName: "T", Dst: "n"}, "n", nil},
		{Instr{Op: Goto, Target: "L"}, "", nil},
	}
	for _, c := range cases {
		if got := c.in.Defs(); got != c.def {
			t.Errorf("%s: def %q want %q", c.in.String(), got, c.def)
		}
		got := c.in.Uses()
		if len(got) != len(c.uses) {
			t.Errorf("%s: uses %v want %v", c.in.String(), got, c.uses)
			continue
		}
		for i := range got {
			if got[i] != c.uses[i] {
				t.Errorf("%s: uses %v want %v", c.in.String(), got, c.uses)
			}
		}
	}
}

func TestRelNegate(t *testing.T) {
	pairs := map[Rel]Rel{EQ: NE, NE: EQ, LT: GE, LE: GT, GT: LE, GE: LT}
	for r, want := range pairs {
		if got := r.Negate(); got != want {
			t.Errorf("%s.Negate() = %s, want %s", r, got, want)
		}
	}
}

func TestIfElseLowering(t *testing.T) {
	p := build(t, `
int f(int a) {
    int x;
    if (a > 0) {
        x = 1;
    } else {
        x = 2;
    }
    return x;
}`, "f")
	s := p.String()
	for _, frag := range []string{"if a <= R1 goto", "li 1, x", "li 2, x", "goto endif"} {
		if !strings.Contains(s, frag) {
			t.Errorf("missing %q in:\n%s", frag, s)
		}
	}
}

func TestShortCircuitAnd(t *testing.T) {
	// In a branch-if-false context, && splits into two negated tests.
	p := build(t, `
void f(int a, int b) {
    int x;
    while (a > 0 && b > 0) {
        x = 1;
        a = a - 1;
    }
}`, "f")
	l := p.Loops[0]
	tests := p.Instrs[l.TestStart:l.BodyStart]
	brs := 0
	for _, in := range tests {
		if in.Op == Br {
			brs++
		}
	}
	if brs != 2 {
		t.Errorf("want 2 negated branch tests for &&, got %d:\n%s", brs, p.String())
	}
}

func TestMultiDerefLoads(t *testing.T) {
	p := build(t, twoWayLL+`
void f(TwoWayLL *p) {
    int v;
    v = p->next->x;
}`, "f")
	s := p.String()
	if !strings.Contains(s, "load p->next, R1") || !strings.Contains(s, "load R1->x, v") {
		t.Errorf("bad multi-deref lowering:\n%s", s)
	}
}

func TestStoreNull(t *testing.T) {
	p := build(t, twoWayLL+`
void f(TwoWayLL *p) {
    p->next = NULL;
}`, "f")
	if !strings.Contains(p.String(), "store NULL, p->next") {
		t.Errorf("bad null store:\n%s", p.String())
	}
}

func TestNewAndFree(t *testing.T) {
	p := build(t, twoWayLL+`
void f() {
    TwoWayLL *p;
    p = new TwoWayLL;
    free(p);
}`, "f")
	s := p.String()
	if !strings.Contains(s, "new TwoWayLL, p") || !strings.Contains(s, "free p") {
		t.Errorf("bad lowering:\n%s", s)
	}
}

func TestNestedLoopInfos(t *testing.T) {
	p := build(t, `
void f(int n) {
    int i, j;
    i = 0;
    while (i < n) {
        j = 0;
        while (j < n) {
            j = j + 1;
        }
        i = i + 1;
    }
}`, "f")
	if len(p.Loops) != 2 {
		t.Fatalf("loops = %d", len(p.Loops))
	}
	outer, inner := p.Loops[0], p.Loops[1]
	if outer.SrcID != 0 || inner.SrcID != 1 {
		t.Errorf("SrcIDs = %d, %d", outer.SrcID, inner.SrcID)
	}
	if !(outer.BodyStart < inner.TestStart && inner.BodyEnd <= outer.BodyEnd) {
		t.Errorf("inner loop not nested in outer: %+v %+v", outer, inner)
	}
}

func TestBodySlice(t *testing.T) {
	p := build(t, shiftSrc, "shift")
	body := p.Instrs[p.Loops[0].BodyStart:p.Loops[0].BodyEnd]
	if len(body) != 5 {
		t.Errorf("body has %d instrs, want 5:\n%s", len(body), p.String())
	}
}

func TestFindLabel(t *testing.T) {
	p := build(t, shiftSrc, "shift")
	if p.FindLabel(p.Loops[0].HeadLabel) < 0 {
		t.Error("head label not found")
	}
	if p.FindLabel("nope") != -1 {
		t.Error("bogus label found")
	}
}

func TestBuildWithTypes(t *testing.T) {
	info := types.MustCheck(parser.MustParse(twoWayLL + `
void f(TwoWayLL *p) {
    int v;
    v = p->next->x;
}`))
	_, vt := BuildWithTypes(info.Func("f"), info.Env)
	if vt["R1"].Record != "TwoWayLL" {
		t.Errorf("R1 type = %v, want TwoWayLL pointer", vt["R1"])
	}
}

// TestInstrString pins each opcode's rendering, including the NULL operand
// spellings, a negative immediate and an unknown opcode.
func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Nop}, "nop"},
		{Instr{Op: Label, Name: "L1"}, "L1:"},
		{Instr{Op: Goto, Target: "L2"}, "goto L2"},
		{Instr{Op: Br, Src1: "p", Rel: NE, Target: "L3"}, "if p != NULL goto L3"},
		{Instr{Op: Br, Src1: "i", Rel: LE, Src2: "n", Target: "L3"}, "if i <= n goto L3"},
		{Instr{Op: Load, Src1: "p", Field: "next", Dst: "R1"}, "load p->next, R1"},
		{Instr{Op: Store, Src1: "p", Field: "next", Src2: "q"}, "store q, p->next"},
		{Instr{Op: Store, Src1: "p", Field: "next"}, "store NULL, p->next"},
		{Instr{Op: LoadImm, Imm: -42, Dst: "R2"}, "li -42, R2"},
		{Instr{Op: Move, Src1: "R1", Dst: "p"}, "move R1, p"},
		{Instr{Op: Add, Src1: "a", Src2: "b", Dst: "c"}, "add a, b, c"},
		{Instr{Op: Rem, Src1: "a", Src2: "b", Dst: "c"}, "rem a, b, c"},
		{Instr{Op: Neg, Src1: "a", Dst: "b"}, "neg a, b"},
		{Instr{Op: Set, Rel: EQ, Src1: "p", Dst: "R3"}, "set== p, NULL, R3"},
		{Instr{Op: Set, Rel: GT, Src1: "a", Src2: "b", Dst: "R3"}, "set> a, b, R3"},
		{Instr{Op: New, TypeName: "TwoWayLL", Dst: "n"}, "new TwoWayLL, n"},
		{Instr{Op: FreeOp, Src1: "n"}, "free n"},
		{Instr{Op: Call, Name: "f"}, "call f"},
		{Instr{Op: Ret, Src1: "r"}, "ret r"},
		{Instr{Op: Ret}, "ret"},
		{Instr{Op: Op(99)}, "?"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%+v: String() = %q, want %q", c.in, got, c.want)
		}
		if got := string(c.in.AppendTo([]byte("x "))); got != "x "+c.want {
			t.Errorf("%+v: AppendTo = %q, want %q", c.in, got, "x "+c.want)
		}
	}
}

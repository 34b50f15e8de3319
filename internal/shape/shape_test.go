package shape

import (
	"strings"
	"testing"

	"repro/internal/source/ast"
	"repro/internal/source/parser"
)

// paperDecls holds all six declarations from Section 3 of the paper.
const paperDecls = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
type PBinTree [down] {
    int data;
    PBinTree *left, *right is uniquely forward along down;
    PBinTree *parent is backward along down;
};
type OrthL [X] [Y] {
    int data;
    OrthL *across is uniquely forward along X;
    OrthL *back is backward along X;
    OrthL *down is uniquely forward along Y;
    OrthL *up is backward along Y;
};
type LOLS [X] [Y] where X || Y {
    int data;
    LOLS *across is uniquely forward along X;
    LOLS *back is backward along X;
    LOLS *down is uniquely forward along Y;
    LOLS *up is backward along Y;
};
type TwoDRT [down] [sub] [leaves] where sub || down, sub || leaves {
    int data;
    TwoDRT *left, *right is uniquely forward along down;
    TwoDRT *subtree is uniquely forward along sub;
    TwoDRT *next is uniquely forward along leaves;
    TwoDRT *prev is backward along leaves;
};
type CirL [X] {
    int data;
    CirL *next is circular along X;
};
`

func buildPaper(t *testing.T) *Env {
	t.Helper()
	env, probs := Build(parser.MustParse(paperDecls))
	if len(probs) > 0 {
		t.Fatalf("paper declarations not well-formed: %v", probs[0])
	}
	return env
}

func TestTwoWayLLModel(t *testing.T) {
	env := buildPaper(t)
	ll := env.Type("TwoWayLL")
	if ll == nil {
		t.Fatal("TwoWayLL missing")
	}
	next := ll.Field("next")
	if next.Dir != UniquelyForward || !next.Acyclic() || next.Dim != "X" {
		t.Errorf("next = %+v", next)
	}
	prev := ll.Field("prev")
	if prev.Dir != Backward || !prev.Acyclic() {
		t.Errorf("prev = %+v", prev)
	}
	if bp := ll.BackwardPartner("next"); bp == nil || bp.Name != "prev" {
		t.Errorf("BackwardPartner(next) = %v", bp)
	}
	if fps := ll.ForwardPartners("prev"); len(fps) != 1 || fps[0].Name != "next" {
		t.Errorf("ForwardPartners(prev) = %v", fps)
	}
	if !ll.HasIntField("data") || ll.HasIntField("next") {
		t.Error("int field classification wrong")
	}
}

func TestPBinTreeGroups(t *testing.T) {
	env := buildPaper(t)
	bt := env.Type("PBinTree")
	if !bt.SameGroup("left", "right") {
		t.Error("left/right should share a combined group")
	}
	if bt.SameGroup("left", "parent") {
		t.Error("left/parent should not share a group")
	}
	g := bt.GroupOf("left")
	if len(g) != 2 {
		t.Errorf("GroupOf(left) = %v", g)
	}
	if got := bt.GroupOf("parent"); len(got) != 1 || got[0] != "parent" {
		t.Errorf("GroupOf(parent) = %v", got)
	}
}

func TestOrthLDependentDims(t *testing.T) {
	env := buildPaper(t)
	ol := env.Type("OrthL")
	if ol.Independent("X", "Y") {
		t.Error("OrthL dims must be dependent by default (Def 4.10)")
	}
}

func TestLOLSIndependentDims(t *testing.T) {
	env := buildPaper(t)
	ll := env.Type("LOLS")
	if !ll.Independent("X", "Y") || !ll.Independent("Y", "X") {
		t.Error("LOLS X || Y must be independent both ways")
	}
	if ll.Independent("X", "X") {
		t.Error("a dimension is never independent of itself")
	}
}

func TestTwoDRTPartialIndependence(t *testing.T) {
	env := buildPaper(t)
	rt := env.Type("TwoDRT")
	if !rt.Independent("sub", "down") || !rt.Independent("sub", "leaves") {
		t.Error("sub must be independent of down and leaves")
	}
	if rt.Independent("down", "leaves") {
		t.Error("down and leaves are dependent (each leaf reachable along both)")
	}
}

func TestCircularNotAcyclic(t *testing.T) {
	env := buildPaper(t)
	cl := env.Type("CirL")
	next := cl.Field("next")
	if next.Acyclic() {
		t.Error("circular field must not be acyclic")
	}
	if next.Dir == UniquelyForward {
		t.Error("circular field is not uniquely forward")
	}
}

func TestDefaultDimension(t *testing.T) {
	src := `
type BinTree {
    int data;
    BinTree *left;
    BinTree *right;
};
`
	env, probs := Build(parser.MustParse(src))
	if len(probs) > 0 {
		t.Fatalf("probs: %v", probs)
	}
	bt := env.Type("BinTree")
	if len(bt.Dims) != 1 || bt.Dims[0] != DefaultDim {
		t.Errorf("dims = %v", bt.Dims)
	}
	if bt.Field("left").Dir != Unknown {
		t.Errorf("left dir = %v, want Unknown default", bt.Field("left").Dir)
	}
}

func TestDef45BackwardRequiresForward(t *testing.T) {
	src := `
type Bad [X] {
    int data;
    Bad *prev is backward along X;
};
`
	_, probs := Build(parser.MustParse(src))
	if len(probs) == 0 {
		t.Fatal("want Def 4.5 violation")
	}
	if !strings.Contains(probs[0].Msg, "Def 4.5") {
		t.Errorf("msg = %q", probs[0].Msg)
	}
}

func TestCombinedRequiresUniquelyForward(t *testing.T) {
	src := `
type Bad [X] {
    Bad *a, *b is forward along X;
};
`
	_, probs := Build(parser.MustParse(src))
	if len(probs) == 0 {
		t.Fatal("want combined-group violation")
	}
}

func TestUndeclaredDimension(t *testing.T) {
	src := `
type Bad [X] {
    Bad *f is forward along Z;
};
`
	_, probs := Build(parser.MustParse(src))
	if len(probs) == 0 {
		t.Fatal("want undeclared-dimension problem")
	}
}

func TestUndeclaredTargetType(t *testing.T) {
	src := `
type Bad [X] {
    Mystery *f is forward along X;
};
`
	_, probs := Build(parser.MustParse(src))
	if len(probs) == 0 {
		t.Fatal("want undeclared-target problem")
	}
}

func TestRedeclaredField(t *testing.T) {
	src := `
type Bad [X] {
    int data;
    Bad *data is forward along X;
};
`
	_, probs := Build(parser.MustParse(src))
	if len(probs) == 0 {
		t.Fatal("want redeclared-field problem")
	}
}

func TestIndependenceNamesUndeclaredDim(t *testing.T) {
	src := `
type Bad [X] where X || Q {
    Bad *f is forward along X;
};
`
	_, probs := Build(parser.MustParse(src))
	if len(probs) == 0 {
		t.Fatal("want undeclared-dim problem in where clause")
	}
}

func TestStripped(t *testing.T) {
	env := buildPaper(t)
	st := env.Stripped()
	ll := st.Type("TwoWayLL")
	if ll.Field("next").Dir != Unknown {
		t.Error("stripped next must be Unknown")
	}
	if ll.Field("next").Acyclic() {
		t.Error("stripped next must not be acyclic")
	}
	lols := st.Type("LOLS")
	if lols.Independent("X", "Y") {
		t.Error("stripped env must drop independence")
	}
	bt := st.Type("PBinTree")
	if bt.SameGroup("left", "right") {
		t.Error("stripped env must drop groups")
	}
	// Original must be untouched.
	if env.Type("TwoWayLL").Field("next").Dir != UniquelyForward {
		t.Error("Stripped mutated the original environment")
	}
}

func TestEnvNilSafety(t *testing.T) {
	var e *Env
	if e.Type("anything") != nil {
		t.Error("nil Env must return nil Type")
	}
}

func TestDirectionOrderingMatchesAST(t *testing.T) {
	// The analysis relies on these being distinct values.
	dirs := []Direction{None, Unknown, Circular, Backward, Forward, UniquelyForward}
	seen := map[Direction]bool{}
	for _, d := range dirs {
		if seen[d] {
			t.Fatalf("duplicate direction value %v", d)
		}
		seen[d] = true
	}
	if UniquelyForward != ast.DirUniquelyForward {
		t.Error("aliasing broken")
	}
}

func TestStringRendering(t *testing.T) {
	env := buildPaper(t)
	s := env.Type("PBinTree").String()
	for _, want := range []string{"PBinTree[down]", "left:uniquely forward/down", "(g0)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

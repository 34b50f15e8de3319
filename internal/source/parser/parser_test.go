package parser

import (
	"strings"
	"testing"

	"repro/internal/source/ast"
)

// twoWayLL is the paper's Section 3.1 declaration, verbatim modulo spelling.
const twoWayLL = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
`

func TestParseTwoWayLL(t *testing.T) {
	prog := MustParse(twoWayLL)
	if len(prog.Types) != 1 {
		t.Fatalf("got %d types", len(prog.Types))
	}
	td := prog.Types[0]
	if td.Name != "TwoWayLL" {
		t.Errorf("name = %q", td.Name)
	}
	if len(td.Dims) != 1 || td.Dims[0] != "X" {
		t.Errorf("dims = %v", td.Dims)
	}
	if len(td.Fields) != 3 {
		t.Fatalf("fields = %d", len(td.Fields))
	}
	next := td.Fields[1]
	if next.Names[0] != "next" || next.Dir != ast.DirUniquelyForward || next.Dim != "X" {
		t.Errorf("next = %+v", next)
	}
	prev := td.Fields[2]
	if prev.Names[0] != "prev" || prev.Dir != ast.DirBackward {
		t.Errorf("prev = %+v", prev)
	}
}

func TestParsePBinTreeCombined(t *testing.T) {
	src := `
type PBinTree [down] {
    int data;
    PBinTree *left, *right is uniquely forward along down;
    PBinTree *parent is backward along down;
};
`
	prog := MustParse(src)
	td := prog.Types[0]
	group := td.Fields[1]
	if len(group.Names) != 2 || group.Names[0] != "left" || group.Names[1] != "right" {
		t.Fatalf("combined group = %v", group.Names)
	}
	if group.Dir != ast.DirUniquelyForward || group.Dim != "down" {
		t.Errorf("group clause = %v along %q", group.Dir, group.Dim)
	}
}

func TestParseIndependentDims(t *testing.T) {
	src := `
type TwoDRT [down] [sub] [leaves] where sub || down, sub || leaves {
    int data;
    TwoDRT *left, *right is uniquely forward along down;
    TwoDRT *subtree is uniquely forward along sub;
    TwoDRT *next is uniquely forward along leaves;
    TwoDRT *prev is backward along leaves;
};
`
	prog := MustParse(src)
	td := prog.Types[0]
	if len(td.Dims) != 3 {
		t.Fatalf("dims = %v", td.Dims)
	}
	if len(td.Indep) != 2 {
		t.Fatalf("indep = %v", td.Indep)
	}
	if td.Indep[0] != [2]string{"sub", "down"} || td.Indep[1] != [2]string{"sub", "leaves"} {
		t.Errorf("indep = %v", td.Indep)
	}
}

func TestParseCircular(t *testing.T) {
	src := `
type CirL [X] {
    int data;
    CirL *next is circular along X;
};
`
	prog := MustParse(src)
	if got := prog.Types[0].Fields[1].Dir; got != ast.DirCircular {
		t.Errorf("dir = %v", got)
	}
}

func TestParseNoClauseDefaults(t *testing.T) {
	src := `
type BinTree {
    int data;
    BinTree *left;
    BinTree *right;
};
`
	prog := MustParse(src)
	td := prog.Types[0]
	if len(td.Dims) != 0 {
		t.Errorf("dims = %v", td.Dims)
	}
	if td.Fields[1].Dir != ast.DirNone {
		t.Errorf("left dir = %v, want DirNone", td.Fields[1].Dir)
	}
}

// shiftOrigin is the paper's Section 5.1.2 loop.
const shiftOrigin = twoWayLL + `
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
}
`

func TestParseShiftOrigin(t *testing.T) {
	prog := MustParse(shiftOrigin)
	fn := prog.FuncByName("shift")
	if fn == nil {
		t.Fatal("shift not found")
	}
	if len(fn.Params) != 1 || fn.Params[0].Name != "hd" || !fn.Params[0].Pointer {
		t.Fatalf("params = %+v", fn.Params[0])
	}
	if len(fn.Body.Vars) != 1 || fn.Body.Vars[0].Names[0] != "p" {
		t.Fatalf("vars = %+v", fn.Body.Vars)
	}
	if len(fn.Body.Stmts) != 2 {
		t.Fatalf("stmts = %d", len(fn.Body.Stmts))
	}
	w, ok := fn.Body.Stmts[1].(*ast.WhileStmt)
	if !ok {
		t.Fatalf("stmt 1 = %T", fn.Body.Stmts[1])
	}
	body, ok := w.Body.(*ast.Block)
	if !ok || len(body.Stmts) != 2 {
		t.Fatalf("while body = %T", w.Body)
	}
	step, ok := body.Stmts[1].(*ast.AssignStmt)
	if !ok {
		t.Fatalf("step = %T", body.Stmts[1])
	}
	rhs, ok := step.RHS.(*ast.Path)
	if !ok || rhs.Var != "p" || len(rhs.Fields) != 1 || rhs.Fields[0] != "next" {
		t.Fatalf("step rhs = %s", ast.ExprString(step.RHS))
	}
}

func TestParsePaperNotEqualSpelling(t *testing.T) {
	src := twoWayLL + `
void f(TwoWayLL *p) {
    while (p <> NULL) {
        p = p->next;
    }
}
`
	prog := MustParse(src)
	fn := prog.FuncByName("f")
	w := fn.Body.Stmts[0].(*ast.WhileStmt)
	if got := ast.ExprString(w.Cond); got != "p != NULL" {
		t.Errorf("cond = %q", got)
	}
}

func TestParseNewAndNullAssign(t *testing.T) {
	src := twoWayLL + `
void g() {
    TwoWayLL *p, *q;
    p = new TwoWayLL;
    p->next = NULL;
    q = p;
    q->data = 5;
}
`
	prog := MustParse(src)
	fn := prog.FuncByName("g")
	if len(fn.Body.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(fn.Body.Stmts))
	}
	alloc := fn.Body.Stmts[0].(*ast.AssignStmt)
	if _, ok := alloc.RHS.(*ast.NewExpr); !ok {
		t.Errorf("rhs = %T", alloc.RHS)
	}
	store := fn.Body.Stmts[1].(*ast.AssignStmt)
	if store.LHS.Var != "p" || store.LHS.Fields[0] != "next" {
		t.Errorf("lhs = %v", store.LHS)
	}
	if _, ok := store.RHS.(*ast.NullLit); !ok {
		t.Errorf("rhs = %T", store.RHS)
	}
}

func TestParseIfElseAndCalls(t *testing.T) {
	src := `
void h(int n) {
    int x;
    if (n > 0 && n < 10) {
        x = n * 2;
    } else {
        x = helper(n, 3) + 1;
    }
    emit(x);
    return;
}
`
	prog := MustParse(src)
	fn := prog.FuncByName("h")
	ifs, ok := fn.Body.Stmts[0].(*ast.IfStmt)
	if !ok {
		t.Fatalf("stmt 0 = %T", fn.Body.Stmts[0])
	}
	if ifs.Else == nil {
		t.Error("else missing")
	}
	if _, ok := fn.Body.Stmts[1].(*ast.CallStmt); !ok {
		t.Errorf("stmt 1 = %T", fn.Body.Stmts[1])
	}
	if _, ok := fn.Body.Stmts[2].(*ast.ReturnStmt); !ok {
		t.Errorf("stmt 2 = %T", fn.Body.Stmts[2])
	}
}

func TestPrecedence(t *testing.T) {
	src := `void f() { int x; x = 1 + 2 * 3; }`
	prog := MustParse(src)
	assign := prog.Funcs[0].Body.Stmts[0].(*ast.AssignStmt)
	bin := assign.RHS.(*ast.BinExpr)
	if got := ast.ExprString(bin.Y); got != "2 * 3" {
		t.Errorf("rhs of + = %q", got)
	}
}

func TestFreeStmt(t *testing.T) {
	src := twoWayLL + `void f(TwoWayLL *p) { free(p); }`
	prog := MustParse(src)
	if _, ok := prog.Funcs[0].Body.Stmts[0].(*ast.FreeStmt); !ok {
		t.Fatalf("stmt = %T", prog.Funcs[0].Body.Stmts[0])
	}
}

func TestErrorRecovery(t *testing.T) {
	src := `
void f() {
    int x;
    x = ;
    x = 2;
}
`
	prog, err := Parse([]byte(src))
	if err == nil {
		t.Fatal("want syntax error")
	}
	if prog == nil || len(prog.Funcs) != 1 {
		t.Fatal("want partial program despite errors")
	}
}

func TestRoundTripPrint(t *testing.T) {
	// Print each function then reparse; the second print must be identical
	// (fixpoint).
	print := func(p *ast.Program) string {
		var b strings.Builder
		for _, f := range p.Funcs {
			b.WriteString(ast.FuncString(f))
		}
		return b.String()
	}
	text1 := print(MustParse(shiftOrigin))
	prog2, err := Parse([]byte(text1))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text1)
	}
	if text2 := print(prog2); text1 != text2 {
		t.Errorf("print not stable:\n--- first\n%s\n--- second\n%s", text1, text2)
	}
}

func TestWalkExprs(t *testing.T) {
	prog := MustParse(`void f() { int x; x = 1 + g(2, 3); }`)
	var paths, lits int
	for _, s := range prog.Funcs[0].Body.Stmts {
		ast.WalkExprs(s, func(e ast.Expr) {
			switch e.(type) {
			case *ast.Path:
				paths++
			case *ast.IntLit:
				lits++
			}
		})
	}
	if paths != 1 || lits != 3 {
		t.Errorf("paths=%d lits=%d", paths, lits)
	}
}

func TestForLoopDesugar(t *testing.T) {
	src := twoWayLL + `
void f(TwoWayLL *hd) {
    TwoWayLL *p;
    for (p = hd; p != NULL; p = p->next) {
        p->data = 0;
    }
}
`
	prog := MustParse(src)
	fn := prog.FuncByName("f")
	blk, ok := fn.Body.Stmts[0].(*ast.Block)
	if !ok || len(blk.Stmts) != 2 {
		t.Fatalf("for not desugared to {init; while}: %T", fn.Body.Stmts[0])
	}
	if _, ok := blk.Stmts[0].(*ast.AssignStmt); !ok {
		t.Errorf("init = %T", blk.Stmts[0])
	}
	w, ok := blk.Stmts[1].(*ast.WhileStmt)
	if !ok {
		t.Fatalf("loop = %T", blk.Stmts[1])
	}
	if got := ast.ExprString(w.Cond); got != "p != NULL" {
		t.Errorf("cond = %q", got)
	}
	inner := w.Body.(*ast.Block)
	if len(inner.Stmts) != 2 {
		t.Fatalf("while body should be {body; post}, got %d stmts", len(inner.Stmts))
	}
	post := inner.Stmts[1].(*ast.AssignStmt)
	if got := ast.ExprString(post.RHS); got != "p->next" {
		t.Errorf("post = %q", got)
	}
}

func TestForLoopEmptyClauses(t *testing.T) {
	src := `
void f(int n) {
    int i;
    i = 0;
    for (; i < n;) {
        i = i + 1;
    }
}
`
	prog := MustParse(src)
	fn := prog.FuncByName("f")
	if _, ok := fn.Body.Stmts[1].(*ast.WhileStmt); !ok {
		t.Fatalf("for without init should be a bare while, got %T", fn.Body.Stmts[1])
	}
}

func TestForLoopInfiniteCondition(t *testing.T) {
	prog := MustParse(`void f() { int i; for (i = 0; ; i = i + 1) { return; } }`)
	fn := prog.FuncByName("f")
	blk := fn.Body.Stmts[0].(*ast.Block)
	w := blk.Stmts[1].(*ast.WhileStmt)
	lit, ok := w.Cond.(*ast.IntLit)
	if !ok || lit.Value != 1 {
		t.Errorf("empty condition should be literal 1, got %s", ast.ExprString(w.Cond))
	}
}

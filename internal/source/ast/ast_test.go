package ast

import (
	"strings"
	"testing"

	"repro/internal/source/token"
)

func pos(line int) token.Pos { return token.Pos{Line: line, Column: 1} }

func TestExprStringForms(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&IntLit{Value: 42}, "42"},
		{&NullLit{}, "NULL"},
		{&NewExpr{TypeName: "List"}, "new List"},
		{&Path{Var: "p"}, "p"},
		{&Path{Var: "p", Fields: []string{"next", "data"}}, "p->next->data"},
		{&UnExpr{Op: token.NOT, X: &Path{Var: "p"}}, "!p"},
		{&UnExpr{Op: token.MINUS, X: &IntLit{Value: 3}}, "-3"},
		{&BinExpr{Op: token.PLUS, X: &IntLit{Value: 1}, Y: &IntLit{Value: 2}}, "1 + 2"},
		{&BinExpr{Op: token.STAR,
			X: &BinExpr{Op: token.PLUS, X: &IntLit{Value: 1}, Y: &IntLit{Value: 2}},
			Y: &IntLit{Value: 3}}, "(1 + 2) * 3"},
		{&CallExpr{Name: "f", Args: []Expr{&IntLit{Value: 1}, &Path{Var: "p"}}}, "f(1, p)"},
		{nil, "<nil>"},
	}
	for _, c := range cases {
		if got := ExprString(c.e); got != c.want {
			t.Errorf("ExprString(%T) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestDirectionStrings(t *testing.T) {
	want := map[Direction]string{
		DirNone:            "none",
		DirUnknown:         "unknown",
		DirCircular:        "circular",
		DirBackward:        "backward",
		DirForward:         "forward",
		DirUniquelyForward: "uniquely forward",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), s)
		}
	}
}

func TestProgramLookups(t *testing.T) {
	p := &Program{
		Types: []*TypeDecl{{Name: "A"}, {Name: "B"}},
		Funcs: []*FuncDecl{{Name: "f"}, {Name: "g"}},
	}
	if p.TypeByName("B") == nil || p.TypeByName("C") != nil {
		t.Error("TypeByName wrong")
	}
	if p.FuncByName("g") == nil || p.FuncByName("h") != nil {
		t.Error("FuncByName wrong")
	}
}

func TestPrintAllStatementForms(t *testing.T) {
	body := &Block{Stmts: []Stmt{
		&AssignStmt{LHS: &Path{Var: "p"}, RHS: &NullLit{}},
		&WhileStmt{WhilePos: pos(2), Cond: &IntLit{Value: 1},
			Body: &AssignStmt{LHS: &Path{Var: "x"}, RHS: &IntLit{Value: 1}}},
		&IfStmt{IfPos: pos(3), Cond: &IntLit{Value: 1},
			Then: &Block{Stmts: []Stmt{&ReturnStmt{}}},
			Else: &ReturnStmt{Value: &IntLit{Value: 2}}},
		&CallStmt{Call: &CallExpr{Name: "g"}},
		&FreeStmt{Target: &Path{Var: "p"}},
	}}
	out := FuncString(&FuncDecl{
		Name:   "m",
		RetInt: true,
		Params: []*Param{
			{TypeName: "int", Name: "n"},
			{TypeName: "T", Pointer: true, Name: "p"},
		},
		Body: body,
	})
	for _, frag := range []string{
		"int m(int n, T *p)",
		"p = NULL;",
		"while (1)",
		"if (1)",
		"else",
		"return 2;",
		"g();",
		"free(p);",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("FuncString missing %q:\n%s", frag, out)
		}
	}
}

func TestWalkExprsCoversAllStatements(t *testing.T) {
	stmts := []Stmt{
		&AssignStmt{LHS: &Path{Var: "p"}, RHS: &IntLit{Value: 1}},
		&WhileStmt{Cond: &IntLit{Value: 2}, Body: &Block{}},
		&IfStmt{Cond: &IntLit{Value: 3}, Then: &Block{},
			Else: &Block{Stmts: []Stmt{&ReturnStmt{Value: &IntLit{Value: 4}}}}},
		&CallStmt{Call: &CallExpr{Name: "f", Args: []Expr{&IntLit{Value: 5}}}},
		&FreeStmt{Target: &Path{Var: "q"}},
	}
	var lits, paths int
	for _, s := range stmts {
		WalkExprs(s, func(e Expr) {
			switch e.(type) {
			case *IntLit:
				lits++
			case *Path:
				paths++
			}
		})
	}
	if lits != 5 {
		t.Errorf("lits = %d, want 5", lits)
	}
	if paths != 2 {
		t.Errorf("paths = %d, want 2", paths)
	}
}

func TestPathIsVar(t *testing.T) {
	if !(&Path{Var: "p"}).IsVar() {
		t.Error("bare var")
	}
	if (&Path{Var: "p", Fields: []string{"f"}}).IsVar() {
		t.Error("field path")
	}
}

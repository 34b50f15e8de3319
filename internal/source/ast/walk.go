package ast

// WalkExprs calls fn for every expression contained in the statement,
// including nested subexpressions, in source order.
func WalkExprs(s Stmt, fn func(Expr)) {
	switch s := s.(type) {
	case *Block:
		for _, inner := range s.Stmts {
			WalkExprs(inner, fn)
		}
	case *AssignStmt:
		walkExpr(s.LHS, fn)
		walkExpr(s.RHS, fn)
	case *WhileStmt:
		walkExpr(s.Cond, fn)
		WalkExprs(s.Body, fn)
	case *IfStmt:
		walkExpr(s.Cond, fn)
		WalkExprs(s.Then, fn)
		if s.Else != nil {
			WalkExprs(s.Else, fn)
		}
	case *ReturnStmt:
		if s.Value != nil {
			walkExpr(s.Value, fn)
		}
	case *CallStmt:
		walkExpr(s.Call, fn)
	case *FreeStmt:
		walkExpr(s.Target, fn)
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch e := e.(type) {
	case *BinExpr:
		walkExpr(e.X, fn)
		walkExpr(e.Y, fn)
	case *UnExpr:
		walkExpr(e.X, fn)
	case *CallExpr:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	}
}

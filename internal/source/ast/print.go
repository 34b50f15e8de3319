package ast

import (
	"fmt"
	"strings"

	"repro/internal/source/token"
)

// FuncString renders one function declaration to mini source. The output is
// canonical for a given tree (modulo positions), which the engine's
// content-addressed summary cache keys on.
func FuncString(f *FuncDecl) string {
	var b strings.Builder
	printFuncDecl(&b, f)
	return b.String()
}

func printFuncDecl(b *strings.Builder, f *FuncDecl) {
	ret := "void"
	if f.RetInt {
		ret = "int"
	}
	fmt.Fprintf(b, "%s %s(", ret, f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		if p.Pointer {
			fmt.Fprintf(b, "%s *%s", p.TypeName, p.Name)
		} else {
			fmt.Fprintf(b, "%s %s", p.TypeName, p.Name)
		}
	}
	b.WriteString(") ")
	printBlock(b, f.Body, 0)
	b.WriteByte('\n')
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("    ")
	}
}

func printBlock(b *strings.Builder, blk *Block, depth int) {
	b.WriteString("{\n")
	for _, v := range blk.Vars {
		indent(b, depth+1)
		if v.Pointer {
			fmt.Fprintf(b, "%s ", v.TypeName)
			for i, n := range v.Names {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(b, "*%s", n)
			}
		} else {
			fmt.Fprintf(b, "%s %s", v.TypeName, strings.Join(v.Names, ", "))
		}
		b.WriteString(";\n")
	}
	for _, s := range blk.Stmts {
		printStmt(b, s, depth+1)
	}
	indent(b, depth)
	b.WriteString("}")
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	switch s := s.(type) {
	case *Block:
		indent(b, depth)
		printBlock(b, s, depth)
		b.WriteByte('\n')
	case *AssignStmt:
		indent(b, depth)
		fmt.Fprintf(b, "%s = %s;\n", ExprString(s.LHS), ExprString(s.RHS))
	case *WhileStmt:
		indent(b, depth)
		fmt.Fprintf(b, "while (%s) ", ExprString(s.Cond))
		printNestedStmt(b, s.Body, depth)
	case *IfStmt:
		indent(b, depth)
		fmt.Fprintf(b, "if (%s) ", ExprString(s.Cond))
		printNestedStmt(b, s.Then, depth)
		if s.Else != nil {
			indent(b, depth)
			b.WriteString("else ")
			printNestedStmt(b, s.Else, depth)
		}
	case *ReturnStmt:
		indent(b, depth)
		if s.Value != nil {
			fmt.Fprintf(b, "return %s;\n", ExprString(s.Value))
		} else {
			b.WriteString("return;\n")
		}
	case *CallStmt:
		indent(b, depth)
		fmt.Fprintf(b, "%s;\n", ExprString(s.Call))
	case *FreeStmt:
		indent(b, depth)
		fmt.Fprintf(b, "free(%s);\n", ExprString(s.Target))
	default:
		indent(b, depth)
		fmt.Fprintf(b, "/* unknown stmt %T */\n", s)
	}
}

// printNestedStmt prints the body of a while/if. Blocks stay on the same
// line; other statements go on the next line, indented.
func printNestedStmt(b *strings.Builder, s Stmt, depth int) {
	if blk, ok := s.(*Block); ok {
		printBlock(b, blk, depth)
		b.WriteByte('\n')
		return
	}
	b.WriteByte('\n')
	printStmt(b, s, depth+1)
}

// ExprString renders an expression to source form.
func ExprString(e Expr) string {
	switch e := e.(type) {
	case *Path:
		parts := append([]string{e.Var}, e.Fields...)
		return strings.Join(parts, "->")
	case *IntLit:
		return fmt.Sprintf("%d", e.Value)
	case *NullLit:
		return "NULL"
	case *NewExpr:
		return "new " + e.TypeName
	case *BinExpr:
		return fmt.Sprintf("%s %s %s", parenIfBin(e.X), e.Op, parenIfBin(e.Y))
	case *UnExpr:
		if e.Op == token.NOT {
			return "!" + parenIfBin(e.X)
		}
		return "-" + parenIfBin(e.X)
	case *CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", e.Name, strings.Join(args, ", "))
	case nil:
		return "<nil>"
	}
	return fmt.Sprintf("<%T>", e)
}

func parenIfBin(e Expr) string {
	if _, ok := e.(*BinExpr); ok {
		return "(" + ExprString(e) + ")"
	}
	return ExprString(e)
}

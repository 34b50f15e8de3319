package lexer

import (
	"testing"

	"repro/internal/source/token"
)

// scanAll scans the entire input and returns every token up to and
// including the first EOF.
func scanAll(src []byte) ([]token.Token, []*Error) {
	l := New(src)
	var toks []token.Token
	for {
		t := l.Next()
		toks = append(toks, t)
		if t.Kind == token.EOF {
			return toks, l.Errors()
		}
	}
}

func kinds(t *testing.T, src string) []token.Kind {
	t.Helper()
	toks, errs := scanAll([]byte(src))
	if len(errs) > 0 {
		t.Fatalf("lex %q: %v", src, errs[0])
	}
	var ks []token.Kind
	for _, tok := range toks {
		ks = append(ks, tok.Kind)
	}
	return ks
}

func TestSimpleTokens(t *testing.T) {
	got := kinds(t, "p = q->next;")
	want := []token.Kind{token.IDENT, token.ASSIGN, token.IDENT, token.ARROW,
		token.IDENT, token.SEMI, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestPaperNotEqual(t *testing.T) {
	// The paper writes "while p <> NULL"; <> must lex as NEQ.
	got := kinds(t, "p <> NULL")
	want := []token.Kind{token.IDENT, token.NEQ, token.KwNull, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestADDSKeywords(t *testing.T) {
	got := kinds(t, "is uniquely forward along X where backward unknown circular")
	want := []token.Kind{token.KwIs, token.KwUniquely, token.KwForward,
		token.KwAlong, token.IDENT, token.KwWhere, token.KwBackward,
		token.KwUnknown, token.KwCircular, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestComparisonOperators(t *testing.T) {
	got := kinds(t, "== != < > <= >= && || ! =")
	want := []token.Kind{token.EQ, token.NEQ, token.LT, token.GT, token.LE,
		token.GE, token.AND, token.OR, token.NOT, token.ASSIGN, token.EOF}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestComments(t *testing.T) {
	src := `
// line comment
p = 1; /* block
   comment */ q = 2;`
	got := kinds(t, src)
	want := []token.Kind{token.IDENT, token.ASSIGN, token.INT, token.SEMI,
		token.IDENT, token.ASSIGN, token.INT, token.SEMI, token.EOF}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestUnterminatedComment(t *testing.T) {
	_, errs := scanAll([]byte("p = 1; /* never closed"))
	if len(errs) == 0 {
		t.Fatal("want error for unterminated comment")
	}
}

func TestIllegalChar(t *testing.T) {
	toks, errs := scanAll([]byte("p = #;"))
	if len(errs) == 0 {
		t.Fatal("want error for illegal character")
	}
	found := false
	for _, tok := range toks {
		if tok.Kind == token.ILLEGAL {
			found = true
		}
	}
	if !found {
		t.Error("want an ILLEGAL token in stream")
	}
}

func TestPositions(t *testing.T) {
	l := New([]byte("ab\n cd"))
	t1 := l.Next()
	if t1.Pos.Line != 1 || t1.Pos.Column != 1 {
		t.Errorf("ab at %v, want 1:1", t1.Pos)
	}
	t2 := l.Next()
	if t2.Pos.Line != 2 || t2.Pos.Column != 2 {
		t.Errorf("cd at %v, want 2:2", t2.Pos)
	}
}

func TestIntLiteral(t *testing.T) {
	toks, _ := scanAll([]byte("12345"))
	if toks[0].Kind != token.INT || toks[0].Lit != "12345" {
		t.Errorf("got %v", toks[0])
	}
}

func TestNullSpellings(t *testing.T) {
	for _, s := range []string{"NULL", "null", "nil"} {
		toks, _ := scanAll([]byte(s))
		if toks[0].Kind != token.KwNull {
			t.Errorf("%s: got %v want KwNull", s, toks[0].Kind)
		}
	}
}

func TestEOFForever(t *testing.T) {
	l := New(nil)
	for i := 0; i < 3; i++ {
		if tok := l.Next(); tok.Kind != token.EOF {
			t.Fatalf("call %d: got %v want EOF", i, tok.Kind)
		}
	}
}

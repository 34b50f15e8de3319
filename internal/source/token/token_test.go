package token

import "testing"

func TestLookup(t *testing.T) {
	cases := map[string]Kind{
		"type": KwType, "while": KwWhile, "uniquely": KwUniquely,
		"forward": KwForward, "NULL": KwNull, "nil": KwNull,
		"somename": IDENT, "Next": IDENT,
	}
	for lit, want := range cases {
		if got := Lookup(lit); got != want {
			t.Errorf("Lookup(%q) = %v, want %v", lit, got, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		ARROW: "->", NEQ: "!=", KwAlong: "along", EOF: "EOF",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(9999).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestClassifiers(t *testing.T) {
	for _, k := range []Kind{EQ, NEQ, LT, GT, LE, GE} {
		if !k.IsComparison() {
			t.Errorf("%v should be a comparison", k)
		}
	}
	if PLUS.IsComparison() {
		t.Error("PLUS is not a comparison")
	}
}

func TestPos(t *testing.T) {
	p := Pos{Line: 3, Column: 7}
	if p.String() != "3:7" || !p.IsValid() {
		t.Errorf("pos = %v", p)
	}
	if (Pos{}).IsValid() {
		t.Error("zero pos should be invalid")
	}
}

func TestTokenString(t *testing.T) {
	if got := (Token{Kind: IDENT, Lit: "p"}).String(); got != `IDENT("p")` {
		t.Errorf("token string = %q", got)
	}
	if got := (Token{Kind: ARROW}).String(); got != "->" {
		t.Errorf("token string = %q", got)
	}
}

// Package token defines the lexical tokens of the mini language, a small
// C-like imperative language extended with the ADDS data-structure
// description syntax of Hendren, Hummel and Nicolau (PLDI 1992).
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. The ADDS keywords (IS, ALONG, WHERE, UNIQUELY, FORWARD,
// BACKWARD, UNKNOWN, CIRCULAR) appear only inside type declarations but are
// reserved everywhere for simplicity.
const (
	ILLEGAL Kind = iota
	EOF

	IDENT // p, TwoWayLL, data
	INT   // 123

	// Operators and delimiters.
	ASSIGN // =
	PLUS   // +
	MINUS  // -
	STAR   // *
	SLASH  // /
	PCT    // %

	EQ  // ==
	NEQ // != (the paper also writes <>)
	LT  // <
	GT  // >
	LE  // <=
	GE  // >=

	AND // &&
	OR  // ||
	NOT // !
	AMP // &
	BAR // | (half of ||, illegal alone; kept for error reporting)

	ARROW  // ->
	DOT    // .
	COMMA  // ,
	SEMI   // ;
	LPAREN // (
	RPAREN // )
	LBRACE // {
	RBRACE // }
	LBRACK // [
	RBRACK // ]

	// General keywords.
	KwType
	KwInt
	KwVoid
	KwFunc
	KwWhile
	KwFor
	KwIf
	KwElse
	KwReturn
	KwNull
	KwNew
	KwFree

	// ADDS keywords.
	KwIs
	KwAlong
	KwWhere
	KwUniquely
	KwForward
	KwBackward
	KwUnknown
	KwCircular
)

var names = map[Kind]string{
	ILLEGAL: "ILLEGAL",
	EOF:     "EOF",
	IDENT:   "IDENT",
	INT:     "INT",

	ASSIGN: "=",
	PLUS:   "+",
	MINUS:  "-",
	STAR:   "*",
	SLASH:  "/",
	PCT:    "%",

	EQ:  "==",
	NEQ: "!=",
	LT:  "<",
	GT:  ">",
	LE:  "<=",
	GE:  ">=",

	AND: "&&",
	OR:  "||",
	NOT: "!",
	AMP: "&",
	BAR: "|",

	ARROW:  "->",
	DOT:    ".",
	COMMA:  ",",
	SEMI:   ";",
	LPAREN: "(",
	RPAREN: ")",
	LBRACE: "{",
	RBRACE: "}",
	LBRACK: "[",
	RBRACK: "]",

	KwType:   "type",
	KwInt:    "int",
	KwVoid:   "void",
	KwFunc:   "func",
	KwWhile:  "while",
	KwFor:    "for",
	KwIf:     "if",
	KwElse:   "else",
	KwReturn: "return",
	KwNull:   "NULL",
	KwNew:    "new",
	KwFree:   "free",

	KwIs:       "is",
	KwAlong:    "along",
	KwWhere:    "where",
	KwUniquely: "uniquely",
	KwForward:  "forward",
	KwBackward: "backward",
	KwUnknown:  "unknown",
	KwCircular: "circular",
}

// String returns the source spelling of punctuation and keywords, or the
// class name for IDENT, INT, EOF and ILLEGAL.
func (k Kind) String() string {
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"type":     KwType,
	"int":      KwInt,
	"void":     KwVoid,
	"func":     KwFunc,
	"while":    KwWhile,
	"for":      KwFor,
	"if":       KwIf,
	"else":     KwElse,
	"return":   KwReturn,
	"NULL":     KwNull,
	"null":     KwNull,
	"nil":      KwNull,
	"new":      KwNew,
	"free":     KwFree,
	"is":       KwIs,
	"along":    KwAlong,
	"where":    KwWhere,
	"uniquely": KwUniquely,
	"forward":  KwForward,
	"backward": KwBackward,
	"unknown":  KwUnknown,
	"circular": KwCircular,
}

// Lookup maps an identifier to its keyword kind, or IDENT if it is not a
// reserved word.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Pos is a source position: 1-based line and column plus byte offset.
type Pos struct {
	Line   int
	Column int
	Offset int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Column) }

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a lexical token with its source text and position.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT and INT; empty otherwise
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, ILLEGAL:
		return fmt.Sprintf("%s(%q)", names[t.Kind], t.Lit)
	default:
		return t.Kind.String()
	}
}

// IsComparison reports whether the kind is a relational operator.
func (k Kind) IsComparison() bool {
	switch k {
	case EQ, NEQ, LT, GT, LE, GE:
		return true
	}
	return false
}

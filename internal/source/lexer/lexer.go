// Package lexer turns mini source text into a stream of tokens.
//
// The lexer accepts both C-style comments (/* ... */ and //) and the paper's
// "<>" spelling of the not-equal operator, which it reports as token.NEQ.
package lexer

import (
	"fmt"

	"repro/internal/source/token"
)

// Error is a lexical error at a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Lexer scans a source buffer. Create one with New and call Next until it
// returns an EOF token.
type Lexer struct {
	src    []byte
	offset int // byte offset of current character
	line   int
	col    int
	errs   []*Error
}

// New returns a lexer over src.
func New(src []byte) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Errors returns all lexical errors encountered so far.
func (l *Lexer) Errors() []*Error { return l.errs }

func (l *Lexer) errorf(pos token.Pos, format string, args ...any) {
	l.errs = append(l.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

func (l *Lexer) pos() token.Pos {
	return token.Pos{Line: l.line, Column: l.col, Offset: l.offset}
}

func (l *Lexer) peek() byte {
	if l.offset >= len(l.src) {
		return 0
	}
	return l.src[l.offset]
}

func (l *Lexer) peek2() byte {
	if l.offset+1 >= len(l.src) {
		return 0
	}
	return l.src[l.offset+1]
}

func (l *Lexer) advance() byte {
	ch := l.src[l.offset]
	l.offset++
	if ch == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return ch
}

func (l *Lexer) skipSpaceAndComments() {
	for l.offset < len(l.src) {
		switch ch := l.peek(); {
		case ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n':
			l.advance()
		case ch == '/' && l.peek2() == '/':
			for l.offset < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case ch == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			closed := false
			for l.offset < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
		default:
			return
		}
	}
}

func isLetter(ch byte) bool {
	return 'a' <= ch && ch <= 'z' || 'A' <= ch && ch <= 'Z' || ch == '_'
}

func isDigit(ch byte) bool { return '0' <= ch && ch <= '9' }

// Next returns the next token. After the end of input it returns EOF tokens
// forever.
func (l *Lexer) Next() token.Token {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.offset >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}
	}
	ch := l.advance()

	switch {
	case isLetter(ch):
		start := pos.Offset
		for l.offset < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
			l.advance()
		}
		lit := string(l.src[start:l.offset])
		kind := token.Lookup(lit)
		if kind == token.IDENT {
			return token.Token{Kind: token.IDENT, Lit: lit, Pos: pos}
		}
		return token.Token{Kind: kind, Lit: lit, Pos: pos}

	case isDigit(ch):
		start := pos.Offset
		for l.offset < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
		return token.Token{Kind: token.INT, Lit: string(l.src[start:l.offset]), Pos: pos}
	}

	two := func(next byte, yes, no token.Kind) token.Kind {
		if l.peek() == next {
			l.advance()
			return yes
		}
		return no
	}

	var kind token.Kind
	switch ch {
	case '=':
		kind = two('=', token.EQ, token.ASSIGN)
	case '+':
		kind = token.PLUS
	case '-':
		kind = two('>', token.ARROW, token.MINUS)
	case '*':
		kind = token.STAR
	case '/':
		kind = token.SLASH
	case '%':
		kind = token.PCT
	case '!':
		kind = two('=', token.NEQ, token.NOT)
	case '<':
		switch l.peek() {
		case '=':
			l.advance()
			kind = token.LE
		case '>': // the paper's "p <> NULL"
			l.advance()
			kind = token.NEQ
		default:
			kind = token.LT
		}
	case '>':
		kind = two('=', token.GE, token.GT)
	case '&':
		kind = two('&', token.AND, token.AMP)
	case '|':
		kind = two('|', token.OR, token.BAR)
	case '.':
		kind = token.DOT
	case ',':
		kind = token.COMMA
	case ';':
		kind = token.SEMI
	case '(':
		kind = token.LPAREN
	case ')':
		kind = token.RPAREN
	case '{':
		kind = token.LBRACE
	case '}':
		kind = token.RBRACE
	case '[':
		kind = token.LBRACK
	case ']':
		kind = token.RBRACK
	default:
		l.errorf(pos, "illegal character %q", ch)
		return token.Token{Kind: token.ILLEGAL, Lit: string(ch), Pos: pos}
	}
	return token.Token{Kind: kind, Pos: pos}
}

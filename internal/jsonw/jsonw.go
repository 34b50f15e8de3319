// Package jsonw appends JSON values to a byte slice: the append writers
// behind the /v1 responses, the core types' encodings and the CLIs' JSON
// output. Each writer produces exactly the bytes encoding/json's Marshal
// produces for the same Go value, with no reflection and no second
// compaction pass, so a response written in one pass into a reused buffer is
// byte-identical to its old json.Marshal encoding. Indent then lays such a
// document out as an indenting json.Encoder would.
package jsonw

import (
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safeSet reports the ASCII bytes a string writes as themselves without
// HTML escaping: printable characters other than '"' and '\\'. htmlSafeSet
// also excludes the HTML-sensitive '<', '>' and '&'.
var safeSet, htmlSafeSet = func() (t, h [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
		h[b] = t[b] && b != '<' && b != '>' && b != '&'
	}
	return t, h
}()

// String appends s as a JSON string escaped as json.Marshal escapes it: '"'
// and '\\' by a backslash; \b, \f, \n, \r and \t by their short forms and
// every other control byte as \u00XX; '<', '>' and '&' as \u003c, \u003e
// and \u0026 (HTML escaping); U+2028 and U+2029 as \u2028 and \u2029;
// and each byte of invalid UTF-8 as \ufffd.
func String[S ~string | ~[]byte](dst []byte, s S) []byte {
	return appendString(dst, s, &htmlSafeSet)
}

// StringNoHTML appends s as String does but writes '<', '>' and '&' as
// themselves: the bytes a json.Encoder with SetEscapeHTML(false) writes.
func StringNoHTML[S ~string | ~[]byte](dst []byte, s S) []byte {
	return appendString(dst, s, &safeSet)
}

func appendString[S ~string | ~[]byte](dst []byte, s S, safe *[utf8.RuneSelf]bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == 0x2028 || c == 0x2029 { // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Strings appends ss as a JSON array of strings, or null for a nil slice.
func Strings(dst []byte, ss []string) []byte {
	return StringsWith(dst, ss, String[string])
}

// StringsWith is Strings with each element written by str, String or
// StringNoHTML.
func StringsWith(dst []byte, ss []string, str func([]byte, string) []byte) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = str(dst, s)
	}
	return append(dst, ']')
}

// Bool appends true or false.
func Bool(dst []byte, b bool) []byte {
	return strconv.AppendBool(dst, b)
}

// Int appends n in decimal.
func Int(dst []byte, n int) []byte {
	return strconv.AppendInt(dst, int64(n), 10)
}

// Float appends a finite f as json.Marshal writes a float64: the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from 1e21
// up. (Marshal fails on NaN and the infinities, which JSON cannot spell.)
func Float(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Marshal writes e-7, not e-07.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// Indent appends src, one compact JSON value made by these writers, laid
// out as a json.Encoder with SetIndent("", "  ") writes it: each element
// and member on its own line, two spaces per level, [] and {} kept
// compact, a key followed by ": ", and one newline at the end. src is
// trusted: Indent validates nothing and only tracks whether it is inside a
// string, so bytes there, '{' or ',' included, are copied as they are.
func Indent(dst, src []byte) []byte {
	depth := 0
	open := false // the last byte opened an array or object
	for i := 0; i < len(src); {
		c := src[i]
		if open && c != ']' && c != '}' {
			open = false
			depth++
			dst = newline(dst, depth)
		}
		switch c {
		case '"':
			end := i + 1
			for src[end] != '"' {
				if src[end] == '\\' {
					end++
				}
				end++
			}
			dst = append(dst, src[i:end+1]...)
			i = end + 1
			continue
		case '[', '{':
			open = true
			dst = append(dst, c)
		case ']', '}':
			if open {
				open = false
			} else {
				depth--
				dst = newline(dst, depth)
			}
			dst = append(dst, c)
		case ',':
			dst = newline(append(dst, ','), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
		i++
	}
	return append(dst, '\n')
}

// newline appends a line break and the indentation of depth levels.
func newline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for range depth {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

package jsonw_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/exper"
	"repro/internal/jsonw"
)

// stringCases is the fixed table: HTML characters, quotes and backslashes,
// every control byte alone and inside text, DEL, the two JavaScript line
// terminators, valid multi-byte text and invalid UTF-8 of several kinds.
func stringCases() []string {
	ls, ps := string(rune(0x2028)), string(rune(0x2029))
	cases := []string{
		"", "plain", "a->next", "p->left->right", "<script>&amp;</script>",
		`"quoted" \ back\slash`, "tab\tnew\nline", string(rune(0x7f)),
		"é", "—", "日本語", string(utf8.MaxRune),
		ls, ps, "a" + ls + "b" + ps + "c",
		string([]byte{0xff}), "x" + string([]byte{0xc3}) + "y", // a lone lead byte
		string([]byte{0xe2, 0x80}),             // truncated three-byte sequence
		string([]byte{0xed, 0xa0, 0x80}),       // an encoded surrogate
		string([]byte{0xc0, 0xaf}),             // an overlong encoding
		string([]byte{0xf4, 0x90, 0x80, 0x80}), // above U+10FFFF
	}
	for b := 0; b < 0x20; b++ {
		c := string(rune(b))
		cases = append(cases, c, "x"+c+"y")
	}
	return cases
}

// experimentStrings returns every string of the E1–E10 reports, which hold
// the only non-ASCII text the daemon serves.
func experimentStrings(t *testing.T) []string {
	var out []string
	for i := 1; i <= 10; i++ {
		rep := exper.ByID(fmt.Sprintf("E%d", i))
		if rep == nil {
			t.Fatalf("E%d missing", i)
		}
		out = append(out, rep.ID, rep.Title, rep.Claim)
		out = append(out, rep.Headers...)
		out = append(out, rep.Notes...)
		out = append(out, rep.Figures...)
		for _, row := range rep.Rows {
			out = append(out, row...)
		}
	}
	return out
}

// randomStrings draws n strings from a seeded source, mixing arbitrary
// bytes with pieces of the fixed table so escapes meet plain text, each
// other and broken sequences at every offset.
func randomStrings(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	pieces := stringCases()
	out := make([]string, n)
	for i := range out {
		var b []byte
		for k := rng.Intn(12); k > 0; k-- {
			switch rng.Intn(3) {
			case 0:
				b = append(b, byte(rng.Intn(256)))
			case 1:
				b = append(b, byte(' '+rng.Intn(0x60)))
			default:
				b = append(b, pieces[rng.Intn(len(pieces))]...)
			}
		}
		out[i] = string(b)
	}
	return out
}

func TestStringMatchesMarshal(t *testing.T) {
	cases := append(stringCases(), experimentStrings(t)...)
	cases = append(cases, randomStrings(1, 5000)...)
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonw.String(nil, s); !bytes.Equal(got, want) {
			t.Errorf("String(%q) = %s, json.Marshal = %s", s, got, want)
		}
		if got := jsonw.String([]byte("pre"), []byte(s)); !bytes.Equal(got, append([]byte("pre"), want...)) {
			t.Errorf("String(pre, []byte(%q)) = %s, want pre%s", s, got, want)
		}
	}
}

// TestStringNoHTMLMatchesEncoder: StringNoHTML writes what a json.Encoder
// with SetEscapeHTML(false) writes, less the Encoder's newline.
func TestStringNoHTMLMatchesEncoder(t *testing.T) {
	cases := append(stringCases(), experimentStrings(t)...)
	cases = append(cases, randomStrings(3, 5000)...)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for _, s := range cases {
		buf.Reset()
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		want := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if got := jsonw.StringNoHTML(nil, s); !bytes.Equal(got, want) {
			t.Errorf("StringNoHTML(%q) = %s, Encoder = %s", s, got, want)
		}
		if got := jsonw.StringNoHTML([]byte("pre"), []byte(s)); !bytes.Equal(got, append([]byte("pre"), want...)) {
			t.Errorf("StringNoHTML(pre, []byte(%q)) = %s, want pre%s", s, got, want)
		}
	}
}

func TestStringsMatchesMarshal(t *testing.T) {
	for _, ss := range [][]string{nil, {}, {""}, {"a", "<b>", "c\n"}, randomStrings(2, 7)} {
		want, err := json.Marshal(ss)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonw.Strings(nil, ss); !bytes.Equal(got, want) {
			t.Errorf("Strings(%q) = %s, json.Marshal = %s", ss, got, want)
		}
	}
}

func TestNumbersMatchMarshal(t *testing.T) {
	for _, f := range []float64{0, math.Copysign(0, -1), 1, 5, 2.5, -7.25, 1.0 / 3, 1e20, 1e21, 1.5e21,
		1e-6, 9.99e-7, 1e-7, 1.234e-10, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonw.Float(nil, f); !bytes.Equal(got, want) {
			t.Errorf("Float(%v) = %s, json.Marshal = %s", f, got, want)
		}
	}
	for _, n := range []int{0, 1, -1, 42, math.MaxInt, math.MinInt} {
		want, _ := json.Marshal(n)
		if got := jsonw.Int(nil, n); !bytes.Equal(got, want) {
			t.Errorf("Int(%d) = %s, json.Marshal = %s", n, got, want)
		}
	}
	for _, b := range []bool{false, true} {
		want, _ := json.Marshal(b)
		if got := jsonw.Bool(nil, b); !bytes.Equal(got, want) {
			t.Errorf("Bool(%v) = %s, json.Marshal = %s", b, got, want)
		}
	}
}

// indentSeeds are compact documents for Indent: empty and nested-empty
// arrays and objects, strings holding JSON punctuation and escaped quotes
// and backslashes, numbers and literals, alone and nested.
var indentSeeds = []string{
	`[]`, `{}`, `[[]]`, `{"a":{}}`, `[{},[],{"b":[]}]`, `[[[{}]],{}]`,
	`"{}[],:"`, `"\\"`, `"\""`, `"a\\\"b\\"`, `"\\\\"`, `{"k\"{":"v\\,]"}`,
	`0`, `-1.5e-7`, `true`, `false`, `null`, `[1,2.5,-3e21,true,false,null]`,
	`{"a":1,"b":[true,{"c":null,"d":"x:y,z"}],"e":{}}`,
	`{"<tag>":"a-\u003enext","u":"\u2028\ufffd"}`,
}

// indentRef is what an indenting json.Encoder writes for the compact src.
func indentRef(t testing.TB, src []byte) []byte {
	var buf bytes.Buffer
	if err := json.Indent(&buf, src, "", "  "); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), '\n')
}

func TestIndentMatchesEncoder(t *testing.T) {
	for _, s := range indentSeeds {
		if got, want := jsonw.Indent(nil, []byte(s)), indentRef(t, []byte(s)); !bytes.Equal(got, want) {
			t.Errorf("Indent(%s) =\n%s\nwant\n%s", s, got, want)
		}
	}
	// A deeply nested document, after a prefix.
	deep := strings.Repeat(`{"k":[`, 40) + `1` + strings.Repeat(`]}`, 40)
	want := append([]byte("pre"), indentRef(t, []byte(deep))...)
	if got := jsonw.Indent([]byte("pre"), []byte(deep)); !bytes.Equal(got, want) {
		t.Errorf("Indent of 80 levels differs from json.Indent")
	}
	// The E1–E10 reports, which the CLIs print indented.
	for i := 1; i <= 10; i++ {
		src := exper.ByID(fmt.Sprintf("E%d", i)).AppendJSON(nil)
		if got, want := jsonw.Indent(nil, src), indentRef(t, src); !bytes.Equal(got, want) {
			t.Errorf("E%d: Indent differs from json.Indent", i)
		}
	}
}

// FuzzIndent: on any valid document, compacted, Indent writes what
// json.Indent with a two-space indent writes, plus the Encoder's newline.
func FuzzIndent(f *testing.F) {
	for _, s := range indentSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		if !json.Valid(doc) {
			return
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, doc); err != nil {
			t.Fatal(err)
		}
		src := compact.Bytes()
		if got, want := jsonw.Indent(nil, src), indentRef(t, src); !bytes.Equal(got, want) {
			t.Errorf("Indent(%s) =\n%s\nwant\n%s", src, got, want)
		}
	})
}

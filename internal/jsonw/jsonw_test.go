package jsonw_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
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

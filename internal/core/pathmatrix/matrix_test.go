package pathmatrix

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func alias(certain bool) Rel { return Rel{Kind: RelAlias, Certain: certain} }
func pathRel(f string, certain bool) Rel {
	return Rel{Kind: RelPath, Certain: certain, Path: single(f)}
}

func TestMatrixAddAndQuery(t *testing.T) {
	m := NewMatrix([]string{"a", "b", "c"})
	m.addRel("a", "b", alias(true))
	if !m.MustAlias("a", "b") || !m.MustAlias("b", "a") {
		t.Error("alias must be symmetric")
	}
	m.addRel("a", "c", pathRel("next", true))
	if m.MayAlias("a", "c") {
		t.Error("a path is not an alias")
	}
	if !m.related("a", "c") || m.related("b", "c") {
		t.Error("related wrong")
	}
	if got := relatedNames(m, "a"); len(got) != 2 {
		t.Errorf("related variables = %v", got)
	}
}

// relatedNames returns the variables related to v, in name order.
func relatedNames(m *Matrix, v string) []string {
	var out []string
	for _, x := range m.appendRelated(nil, m.index(v)) {
		out = append(out, m.ix.names[x])
	}
	return out
}

func TestMatrixSelfCellIgnored(t *testing.T) {
	m := NewMatrix([]string{"a"})
	m.addRel("a", "a", alias(true))
	if m.Entry("a", "a") != nil || len(m.rows) != 0 {
		t.Error("diagonal must not be stored")
	}
	if !m.MustAlias("a", "a") {
		t.Error("reflexive must-alias is implicit")
	}
}

func TestMatrixKillAndStaleVia(t *testing.T) {
	m := NewMatrix([]string{"a", "b", "c"})
	m.addRel("a", "b", Rel{Kind: RelPath, Path: single("f"),
		Via: Via{Var: "c", Field: "f"}})
	m.kill("c")
	// The relation survives but its via is stale (c's old value is gone).
	e := m.Entry("a", "b")
	if len(e) != 1 {
		t.Fatalf("entry = %v", e)
	}
	for _, r := range e {
		if !r.Via.Stale {
			t.Error("via should be stale after killing its variable")
		}
	}

	m.addRel("a", "c", alias(false))
	m.kill("a")
	if m.related("a", "b") || m.related("a", "c") {
		t.Error("kill must drop all relations of the variable")
	}
}

func TestMatrixCopyRelations(t *testing.T) {
	m := NewMatrix([]string{"a", "b", "c"})
	m.addRel("a", "b", pathRel("next", true))
	m.addRel("c", "a", pathRel("prev", false))
	m.copyRelations("d", "a")
	if m.Entry("d", "b").String() != "next" {
		t.Errorf("copied out-relation = %q", m.Entry("d", "b"))
	}
	if m.Entry("c", "d").String() != "prev?" {
		t.Errorf("copied in-relation = %q", m.Entry("c", "d"))
	}
}

func TestJoinDropsOneSidedCertainty(t *testing.T) {
	a := NewMatrix([]string{"p", "q"})
	a.addRel("p", "q", alias(true))
	b := NewMatrix([]string{"p", "q"})
	j, _ := Join(a, b)
	if j.MustAlias("p", "q") {
		t.Error("one-sided alias must demote")
	}
	if !j.MayAlias("p", "q") {
		t.Error("may-alias info must survive the join")
	}
}

func TestJoinUnionsViolations(t *testing.T) {
	a := NewMatrix([]string{"p"})
	a.addViolation(Violation{Prop: "acyclic", Field: "next", Base: "p"})
	b := NewMatrix([]string{"p"})
	j, _ := Join(a, b)
	if j.Valid() {
		t.Error("violations must union at joins")
	}
	if len(j.Violations()) != 1 {
		t.Errorf("violations = %v", j.Violations())
	}
}

func TestInvalidMatrixIsFullyConservative(t *testing.T) {
	m := NewMatrix([]string{"p", "q"})
	if m.MayAlias("p", "q") {
		t.Error("no relations, valid: not aliases")
	}
	m.addViolation(Violation{Prop: "unique", Field: "next", Base: "p"})
	if !m.MayAlias("p", "q") {
		t.Error("while invalid, everything may alias")
	}
}

func TestMatrixEqual(t *testing.T) {
	a := NewMatrix([]string{"p", "q"})
	a.addRel("p", "q", pathRel("next", true))
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone must be equal")
	}
	b.addRel("p", "q", alias(false))
	if a.Equal(b) {
		t.Error("different entries must differ")
	}
	c := a.Clone()
	c.addViolation(Violation{Prop: "acyclic", Field: "next", Base: "p"})
	if a.Equal(c) {
		t.Error("violations participate in equality")
	}
}

func TestMatrixCloneIsDeep(t *testing.T) {
	a := NewMatrix([]string{"p", "q"})
	a.addRel("p", "q", pathRel("next", true))
	b := a.Clone()
	b.kill("p")
	if len(a.Entry("p", "q")) == 0 {
		t.Error("clone aliased the original's cells")
	}
}

func TestMatrixStringHidesBareTemps(t *testing.T) {
	m := NewMatrix([]string{"p", "@t1", "@t2"})
	m.addRel("p", "@t1", pathRel("next", true))
	s := m.String()
	if !strings.Contains(s, "@t1") {
		t.Error("temp with relations must display")
	}
	if strings.Contains(s, "@t2") {
		t.Error("relation-free temp must be hidden")
	}
}

// BenchmarkMatrixJoin measures the join cost on realistic small matrices.
func BenchmarkMatrixJoin(b *testing.B) {
	a := NewMatrix([]string{"hd", "p", "q", "r"})
	a.addRel("hd", "p", pathRel("next", true))
	a.addRel("hd", "q", pathRel("next", false))
	a.addRel("p", "q", alias(false))
	c := a.Clone()
	c.addRel("q", "r", pathRel("prev", true))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(a, c)
	}
}

// refKey and refString are the fmt-based path renderings of the interned
// layout, kept here as an independent reference for Path.Key and
// Path.String, which now share relLess's appender.
func refKey(p Path) string {
	parts := make([]string, len(p))
	for i, s := range p {
		switch {
		case s.Min == 1 && !s.Plus:
			parts[i] = s.Field
		case s.Plus:
			parts[i] = fmt.Sprintf("%s^%d+", s.Field, s.Min)
		default:
			parts[i] = fmt.Sprintf("%s^%d", s.Field, s.Min)
		}
	}
	return strings.Join(parts, ".")
}

func refString(p Path) string {
	parts := make([]string, len(p))
	for i, s := range p {
		f := strings.TrimPrefix(s.Field, "~")
		switch {
		case s.Min == 1 && !s.Plus:
			parts[i] = f
		case s.Min == 1 && s.Plus:
			parts[i] = f + "+"
		case s.Plus:
			parts[i] = fmt.Sprintf("%s^%d+", f, s.Min)
		default:
			parts[i] = fmt.Sprintf("%s^%d", f, s.Min)
		}
	}
	return strings.Join(parts, ".")
}

// relKey spells a relation's identity the way the map-backed entries keyed
// it: the order entries print in is the byte order of these keys.
func relKey(r Rel) string {
	switch r.Kind {
	case RelAlias:
		return "="
	case RelTop:
		return "??"
	}
	k := refKey(r.Path)
	if !r.Via.zero() {
		k += "|via:" + r.Via.Var + "." + r.Via.Field
		if r.Via.Stale {
			k += "!"
		}
	}
	return k
}

// randPath builds a random path over a small field universe, spanning the
// whole domain the analysis can produce (dimension pseudo-fields included).
func randPath(rng *rand.Rand) Path {
	fields := []string{"next", "prev", "left", "right", "parent", "~down", "~X"}
	n := rng.Intn(maxSteps) + 1
	p := make(Path, n)
	for i := range p {
		p[i] = Step{
			Field: fields[rng.Intn(len(fields))],
			Min:   rng.Intn(countCap) + 1,
			Plus:  rng.Intn(2) == 0,
		}
	}
	return p
}

func randRel(rng *rand.Rand) Rel {
	switch rng.Intn(6) {
	case 0:
		return Rel{Kind: RelAlias, Certain: rng.Intn(2) == 0}
	case 1:
		return Rel{Kind: RelTop}
	}
	r := Rel{Kind: RelPath, Certain: rng.Intn(2) == 0, Path: randPath(rng)}
	if rng.Intn(2) == 0 {
		vars := []string{"p", "q", "hd", "p1"}
		fields := []string{"next", "nex", "left"}
		r.Via = Via{Var: vars[rng.Intn(len(vars))], Field: fields[rng.Intn(len(fields))], Stale: rng.Intn(3) == 0}
	}
	return r
}

// TestEntryOrderMatchesKeys: relations are identified and ordered exactly as
// the key strings of the map-backed layout, so every dump keeps its bytes;
// paths render, and compare equal, exactly as the reference spellings say.
func TestEntryOrderMatchesKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		p, q := randPath(rng), randPath(rng)
		if rng.Intn(4) == 0 {
			q = append(Path(nil), p...)
		}
		if got, want := p.String(), refString(p); got != want {
			t.Fatalf("%#v.String() = %q, want %q", p, got, want)
		}
		if got, want := p.Key(), refKey(p); got != want {
			t.Fatalf("%#v.Key() = %q, want %q", p, got, want)
		}
		if got, want := p.Equal(q), refKey(p) == refKey(q); got != want {
			t.Fatalf("%q.Equal(%q) = %v, want %v", refKey(p), refKey(q), got, want)
		}
		a, b := randRel(rng), randRel(rng)
		if got, want := relLess(&a, &b), relKey(a) < relKey(b); got != want {
			t.Fatalf("relLess(%q, %q) = %v, want %v", relKey(a), relKey(b), got, want)
		}
		if got, want := sameRel(&a, &b), relKey(a) == relKey(b); got != want {
			t.Fatalf("sameRel(%q, %q) = %v, want %v", relKey(a), relKey(b), got, want)
		}
	}
	for i := 0; i < 500; i++ {
		var e Entry
		for n := rng.Intn(6); n > 0; n-- {
			e = e.add(randRel(rng))
		}
		for k := 1; k < len(e); k++ {
			if relKey(e[k-1]) >= relKey(e[k]) {
				t.Fatalf("entry %v out of key order", e)
			}
		}
	}
}

// TestJoinSharesWithoutAliasing: a join shares the left matrix's rows and
// entries, so later writes to either parent must not show through.
func TestJoinSharesWithoutAliasing(t *testing.T) {
	a := NewMatrix([]string{"p", "q", "r"})
	a.addRel("p", "q", pathRel("next", true))
	a.addRel("q", "r", alias(true))
	b := a.Clone()
	b.addRel("p", "r", pathRel("next", false))
	j, _ := Join(a, b)
	want := j.String()
	a.addRel("p", "q", alias(false))
	a.kill("r")
	b.kill("q")
	if got := j.String(); got != want {
		t.Fatalf("join changed after writes to its parents:\n%s\nwant\n%s", got, want)
	}
	if jj, _ := Join(j.Clone(), j); !j.Equal(jj) {
		t.Error("joining a matrix with itself must be the identity")
	}
}

// TestMatrixForeignNames: matrices over different variable lists, and
// writes naming a variable outside the list, still join and compare by name.
func TestMatrixForeignNames(t *testing.T) {
	a := NewMatrix([]string{"p", "q"})
	a.addRel("p", "q", alias(true))
	a.addRel("p", "x", pathRel("next", true)) // x is not a declared variable
	b := NewMatrix([]string{"q", "p"})
	b.addRel("q", "p", alias(true))
	b.addRel("p", "x", pathRel("next", true))
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("same relations over permuted variable lists must compare equal")
	}
	if j, _ := Join(a, b); j.Entry("p", "x").String() != "next" {
		t.Errorf("PM(p, x) after join = %q, want next", j.Entry("p", "x"))
	}
	if got := relatedNames(a, "p"); strings.Join(got, ",") != "q,x" {
		t.Errorf("variables related to p = %v", got)
	}
	if a.Entry("y", "p") != nil || a.Entry("p", "y") != nil {
		t.Error("an unknown variable has no relations")
	}
}

package pathmatrix

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func alias(certain bool) Rel { return Rel{Kind: RelAlias, Certain: certain} }

// sibling returns an empty matrix of m's run, to join or compare with m.
func sibling(m *Matrix) *Matrix { return newMatrix(m.ix, m.tab) }
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
	if m.Entry("y", "a") != nil || m.Entry("a", "y") != nil {
		t.Error("an unknown variable has no relations")
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
	m := NewMatrix([]string{"a", "b", "c", "d"})
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
	b := sibling(a)
	j, _ := join(a, b)
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
	b := sibling(a)
	j, _ := join(a, b)
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
	if !a.equal(b) {
		t.Error("clone must be equal")
	}
	b.addRel("p", "q", alias(false))
	if a.equal(b) {
		t.Error("different entries must differ")
	}
	c := a.Clone()
	c.addViolation(Violation{Prop: "acyclic", Field: "next", Base: "p"})
	if a.equal(c) {
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
		join(a, c)
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
	j, _ := join(a, b)
	want := j.String()
	a.addRel("p", "q", alias(false))
	a.kill("r")
	b.kill("q")
	if got := j.String(); got != want {
		t.Fatalf("join changed after writes to its parents:\n%s\nwant\n%s", got, want)
	}
	if jj, _ := join(j.Clone(), j); !j.equal(jj) {
		t.Error("joining a matrix with itself must be the identity")
	}
}

// TestViolationSetModel runs seeded random sequences of add, delete,
// re-anchor, clone and join over the matrices of one run and checks every
// matrix's violation set against a map model after each step: the set is
// sorted by rendering without duplicates, no write changes a set that an
// earlier matrix or a clone holds, equal agrees with the model, and
// violations that render alike (!unique(next) with another Base) come back
// from Violations in one order whatever order they were added in.
func TestViolationSetModel(t *testing.T) {
	type model map[Violation]bool
	// p and q must-alias, so re-anchoring either renames to the other; r,
	// s and the absent x go dead. Renames therefore collide often.
	renameTo := map[string]string{"p": "q", "q": "p", "r": deadName, "s": deadName, "x": deadName}
	names := []string{"p", "q", "r", "s", "x", deadName}
	fields := []string{"", "next", "prev"}
	ties := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
		randViol := func() Violation {
			v := Violation{Prop: pick([]string{"unique", "acyclic", "call"}), Field: pick(fields), Base: pick(names)}
			if rng.Intn(3) == 0 {
				v.Other = pick(names)
			}
			if rng.Intn(4) == 0 {
				v.Partner = pick(fields[1:])
			}
			return v
		}
		base := NewMatrix([]string{"p", "q", "r", "s"})
		base.addRel("p", "q", alias(true))
		ms, models := []*Matrix{base}, []model{{}}
		for step := 0; step < 200; step++ {
			k := rng.Intn(len(ms))
			m, mod := ms[k], models[k]
			before := m.viols
			snapshot := append([]Violation(nil), before...)
			op := rng.Intn(6)
			switch op {
			case 0, 1:
				v := randViol()
				if len(snapshot) > 0 && rng.Intn(3) == 0 {
					v = snapshot[rng.Intn(len(snapshot))] // already held
				}
				m.addViolation(v)
				mod[v] = true
			case 2:
				v := randViol()
				if len(snapshot) > 0 && rng.Intn(2) == 0 {
					v = snapshot[rng.Intn(len(snapshot))]
				}
				m.deleteViolation(v)
				delete(mod, v)
			case 3:
				x := pick([]string{"p", "q", "r", "s", "x"})
				m.reanchorViolations(x)
				next := model{}
				for v := range mod {
					if v.Base == x {
						v.Base = renameTo[x]
					}
					if v.Other == x {
						v.Other = renameTo[x]
					}
					next[v] = true
				}
				models[k] = next
			case 4:
				ms, models = append(ms, m.Clone()), append(models, maps.Clone(mod))
			case 5:
				o := rng.Intn(len(ms))
				j, _ := join(m, ms[o])
				u := maps.Clone(mod)
				maps.Copy(u, models[o])
				ms, models = append(ms, j), append(models, u)
			}
			if !slices.Equal(before, snapshot) {
				t.Fatalf("seed %d step %d op %d: the earlier set changed from %v to %v", seed, step, op, snapshot, before)
			}
			for i, m := range ms {
				vs := m.viols
				for n := 1; n < len(vs); n++ {
					if vs[n-1].String() > vs[n].String() || compareViolations(vs[n-1], vs[n]) >= 0 {
						t.Fatalf("seed %d step %d: set %d out of order or duplicated: %v", seed, step, i, vs)
					}
				}
				if len(vs) != len(models[i]) || slices.ContainsFunc(vs, func(v Violation) bool { return !models[i][v] }) {
					t.Fatalf("seed %d step %d op %d: set %d is %v, want %v", seed, step, op, i, vs, models[i])
				}
			}
			if o := rng.Intn(len(ms)); ms[k].equal(ms[o]) != maps.Equal(models[k], models[o]) {
				t.Fatalf("seed %d step %d: equal of sets %d and %d disagrees with the model", seed, step, k, o)
			}
		}
		for i, m := range ms {
			want := m.Violations()
			for n := 1; n < len(want); n++ {
				if want[n-1].String() == want[n].String() {
					ties++
				}
			}
			for range 3 {
				var vs []Violation
				for v := range models[i] {
					vs = append(vs, v)
				}
				rng.Shuffle(len(vs), func(a, b int) { vs[a], vs[b] = vs[b], vs[a] })
				again := sibling(base)
				for _, v := range vs {
					again.addViolation(v)
				}
				if got := again.Violations(); !slices.Equal(got, want) {
					t.Fatalf("seed %d: set %d depends on insertion order: %v, then %v", seed, i, want, got)
				}
			}
		}
	}
	if ties == 0 {
		t.Error("no set held two violations that render alike")
	}
}

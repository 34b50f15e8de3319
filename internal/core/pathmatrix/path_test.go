package pathmatrix

import "testing"

func step(f string, min int, plus bool) Step { return Step{Field: f, Min: min, Plus: plus} }

func TestStepString(t *testing.T) {
	cases := []struct {
		s    Step
		want string
	}{
		{step("next", 1, false), "next"},
		{step("next", 1, true), "next+"},
		{step("next", 3, false), "next^3"},
		{step("next", 2, true), "next^2+"},
		{step("~down", 2, true), "down^2+"},
	}
	for _, c := range cases {
		if got := (Path{c.s}).String(); got != c.want {
			t.Errorf("Path{%+v}.String() = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestCanonMergesSameField(t *testing.T) {
	p, ok := canon(Path{step("f", 1, false), step("f", 2, true), step("g", 1, false)})
	if !ok {
		t.Fatal("canon failed")
	}
	if p.String() != "f^3+.g" {
		t.Errorf("canon = %q", p.String())
	}
}

func TestCanonCountCap(t *testing.T) {
	p, ok := canon(Path{step("f", countCap+3, false)})
	if !ok {
		t.Fatal("canon failed")
	}
	if p[0].Min != countCap || !p[0].Plus {
		t.Errorf("cap not applied: %+v", p[0])
	}
}

func TestCanonMaxSteps(t *testing.T) {
	long := Path{}
	for i := 0; i < maxSteps+1; i++ {
		long = append(long, step(string(rune('a'+i)), 1, false))
	}
	if _, ok := canon(long); ok {
		t.Error("over-long path should degrade")
	}
}

func TestConcat(t *testing.T) {
	p, ok := concat(single("f"), single("f"))
	if !ok || p.String() != "f^2" {
		t.Errorf("concat = %q ok=%v", p.String(), ok)
	}
	q, ok := concat(single("f"), single("g"))
	if !ok || q.String() != "f.g" {
		t.Errorf("concat = %q", q.String())
	}
}

func TestStripLeadingExact(t *testing.T) {
	rs := stripLeading(single("f"), "f")
	if len(rs) != 1 || !rs[0].ok || !rs[0].alias {
		t.Errorf("strip f^1 = %+v", rs)
	}
}

func TestStripLeadingCount(t *testing.T) {
	rs := stripLeading(Path{step("f", 3, false)}, "f")
	if len(rs) != 1 || !rs[0].ok || rs[0].alias {
		t.Fatalf("strip f^3 = %+v", rs)
	}
	if rs[0].path.String() != "f^2" {
		t.Errorf("remainder = %q", rs[0].path.String())
	}
}

func TestStripLeadingPlus(t *testing.T) {
	// f+ strips to: alias (was exactly one) OR f+ again (was two or more).
	rs := stripLeading(Path{step("f", 1, true)}, "f")
	var alias, again bool
	for _, r := range rs {
		if !r.ok {
			t.Fatalf("bad result %+v", r)
		}
		if r.alias {
			alias = true
		} else if r.path.String() == "f+" {
			again = true
		}
	}
	if !alias || !again {
		t.Errorf("strip f+ = %+v", rs)
	}
}

func TestStripLeadingPlusWithTail(t *testing.T) {
	rs := stripLeading(Path{step("f", 1, true), step("g", 1, false)}, "f")
	var sawTail, sawBoth bool
	for _, r := range rs {
		switch r.path.String() {
		case "g":
			sawTail = true
		case "f+.g":
			sawBoth = true
		}
	}
	if !sawTail || !sawBoth {
		t.Errorf("strip f+.g = %+v", rs)
	}
}

func TestStripLeadingWrongField(t *testing.T) {
	rs := stripLeading(single("g"), "f")
	if len(rs) != 1 || rs[0].ok {
		t.Errorf("wrong-field strip = %+v", rs)
	}
}

func TestStripTrailing(t *testing.T) {
	rs := stripTrailing(Path{step("g", 1, false), step("f", 1, false)}, "f")
	if len(rs) != 1 || !rs[0].ok || rs[0].alias {
		t.Fatalf("strip = %+v", rs)
	}
	if rs[0].path.String() != "g" {
		t.Errorf("remainder = %q", rs[0].path.String())
	}
	if rs2 := stripTrailing(single("f"), "f"); !rs2[0].alias {
		t.Errorf("strip trailing f^1 = %+v", rs2)
	}
}

func TestStartsEndsWith(t *testing.T) {
	p := Path{step("f", 1, false), step("g", 2, false)}
	if !p.startsWith("f") || p.startsWith("g") {
		t.Error("startsWith wrong")
	}
	if !p.endsWith("g") || p.endsWith("f") {
		t.Error("endsWith wrong")
	}
	if Path(nil).startsWith("f") || Path(nil).endsWith("f") {
		t.Error("nil path")
	}
}

func TestPathFieldsAndEqual(t *testing.T) {
	p := Path{step("f", 1, false), step("g", 1, false), step("f", 2, false)}
	if !p.Equal(p) || p.Equal(p[:2]) {
		t.Error("Equal wrong")
	}
}

func TestDimFieldHelpers(t *testing.T) {
	if DimField("down") != "~down" || !IsDimField("~down") || IsDimField("down") {
		t.Error("dim field helpers wrong")
	}
	// String drops the marker.
	p := Path{step("~down", 1, true)}
	if p.String() != "down+" {
		t.Errorf("String = %q", p.String())
	}
}

func TestEntryAddSaturation(t *testing.T) {
	var e Entry
	e = e.add(Rel{Kind: RelAlias, Certain: true})
	for i := 0; i < entrySize+2; i++ {
		e = e.add(Rel{Kind: RelPath, Path: Path{step("f", i+1, false)}})
	}
	if !e.hasTop() {
		t.Error("entry should saturate to Top")
	}
	if !e.mustAlias() {
		t.Error("certain alias must survive saturation")
	}
}

func TestJoinEntriesSignatureMerge(t *testing.T) {
	a := Entry{}.add(Rel{Kind: RelPath, Certain: true, Path: single("next")})
	b := Entry{}.add(Rel{Kind: RelPath, Certain: true, Path: Path{step("next", 2, false)}})
	j := joinEntries(nil, a, b)
	if j.String() != "next+" {
		t.Errorf("join = %q, want next+", j.String())
	}
	for _, r := range j {
		if !r.Certain {
			t.Error("same-signature certain paths must join certain")
		}
	}
}

func TestJoinEntriesOneSidedLosesCertainty(t *testing.T) {
	a := Entry{}.add(Rel{Kind: RelAlias, Certain: true})
	j := joinEntries(nil, a, nil)
	if j.mustAlias() {
		t.Error("one-sided alias must demote to =?")
	}
	if factsOf(j)&factAlias == 0 {
		t.Error("alias info must survive as =?")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Prop: "unique", Field: "next", Base: "p", Other: "q"}
	if v.String() != "!unique(next;p,q)" {
		t.Errorf("violation = %q", v.String())
	}
}

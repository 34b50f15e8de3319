package main

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/source/parser"
)

func TestPlanDigestIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := buildPlan(w, 7, 0, "..")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPlan(w, 7, 0, "..")
		c, _ := buildPlan(w, 8, 0, "..")
		if a.digest != b.digest {
			t.Errorf("%s: seed 7 gave two digests", w)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest", w)
		}
	}
}

// Each pass of a run is a new order: of the same programs on the workloads
// with a fixed corpus, of other hits and edits on hit-edit.
func TestPassesReorderTheSameJobs(t *testing.T) {
	for _, w := range workloads {
		a, err := buildPlan(w, 7, 0, "..")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPlan(w, 7, 1, "..")
		if a.digest == b.digest {
			t.Errorf("%s: passes 0 and 1 have the same plan", w)
		}
		if got, want := names(b.jobs), names(a.jobs); w != "hit-edit" && !slices.Equal(got, want) {
			t.Errorf("%s: pass 1 sends other operations than pass 0", w)
		}
	}
}

func names(jobs []job) []string {
	var out []string
	for _, j := range jobs {
		out = append(out, j.name)
	}
	slices.Sort(out)
	return out
}

// Every miss-workload request must miss the result cache, so no source may
// repeat within a pass.
func TestMissPlansNeverRepeatASource(t *testing.T) {
	for _, name := range []string{"miss-mixed", "miss-hostile"} {
		p, err := buildPlan(name, 1, 0, "..")
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]string{}
		for _, j := range p.jobs {
			if prev, dup := seen[string(j.src)]; dup {
				t.Errorf("%s: %s repeats %s", name, j.name, prev)
			}
			seen[string(j.src)] = j.name
		}
	}
}

func TestEditsChangeOneLiteralAndStillParse(t *testing.T) {
	p, err := buildPlan("hit-edit", 1, 0, "..")
	if err != nil {
		t.Fatal(err)
	}
	edits := 0
	for _, j := range p.jobs {
		if j.kind != kindEdit {
			continue
		}
		edits++
		orig := p.warm[j.pool].src
		if bytes.Equal(j.src, orig) {
			t.Errorf("%s: edit leaves the file unchanged", j.name)
		}
		if _, err := parser.Parse(j.src); err != nil {
			t.Errorf("%s: %v", j.name, err)
		}
		if edits == 5 {
			break
		}
	}
	if edits == 0 {
		t.Fatal("hit-edit plan holds no edits")
	}
}

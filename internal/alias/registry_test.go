package alias_test

// The registry tests live in an external test package, so they see the
// oracle table exactly as the tools do.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/core/pathmatrix"
	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

func TestRegistryNamesOrdered(t *testing.T) {
	got := alias.Names()
	want := []string{"gpm", "classic", "conservative", "klimit", "smg"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	for spelling, canonical := range map[string]string{
		"":             "gpm",
		"gpm":          "gpm",
		"GPM":          "gpm",
		"classic":      "classic",
		"conservative": "conservative",
		"klimit":       "klimit",
		"klimited":     "klimit", // legacy alias
		"smg":          "smg",
	} {
		f, err := alias.Lookup(spelling)
		if err != nil {
			t.Errorf("Lookup(%q): %v", spelling, err)
			continue
		}
		if f.Name != canonical {
			t.Errorf("Lookup(%q) = %q, want %q", spelling, f.Name, canonical)
		}
	}
	_, err := alias.Lookup("psychic")
	if err == nil {
		t.Fatal("unknown oracle should error")
	}
	for _, name := range alias.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error should enumerate %q: %v", name, err)
		}
	}
}

func TestRegistryBuildsEveryOracle(t *testing.T) {
	src := `
type List [X] {
    int data;
    List *next is uniquely forward along X;
};
void f(List *p) {
    List *q;
    q = p;
}
`
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func("f")
	g := norm.Build(fi, info.Env)
	for _, f := range alias.Factories() {
		o := f.Build(context.Background(), g, alias.BuildOpts{Env: info.Env, Info: info, K: 2})
		if o == nil {
			t.Fatalf("%s: Build returned nil", f.Name)
		}
		if o.Name() == "" {
			t.Fatalf("%s: empty oracle name", f.Name)
		}
		// A fresh copy of an unknown input is an alias under every oracle.
		if !o.MayAlias(g.Exit, "p", "q") {
			t.Errorf("%s: p and q must may-alias", f.Name)
		}
	}
}

// TestClassicHonoursCancelledContext: under a done context the classic
// factory runs no fixpoint — neither its stripped summary table nor its own
// analysis — and answers with the sound conservative oracle.
func TestClassicHonoursCancelledContext(t *testing.T) {
	src := `
type List [X] {
    int data;
    List *next is uniquely forward along X;
};
void touch(List *a) {
    a->data = 1;
}
void f(List *p) {
    List *q;
    q = p->next;
    touch(q);
}
`
	info := types.MustCheck(parser.MustParse(src))
	g := norm.Build(info.Func("f"), info.Env)
	opts := alias.BuildOpts{Env: info.Env, Info: info, Summaries: pathmatrix.ComputeSummaries(info, info.Env)}
	classic, err := alias.Lookup("classic")
	if err != nil {
		t.Fatal(err)
	}
	pathmatrix.ResetSummaryCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := pathmatrix.ReadStats().Analyses
	o := classic.Build(ctx, g, opts)
	if ran := pathmatrix.ReadStats().Analyses - before; ran != 0 {
		t.Errorf("cancelled classic build ran %d fixpoints, want 0", ran)
	}
	if want := alias.NewConservative(g).Name(); o.Name() != want {
		t.Errorf("cancelled classic build answered with %q, want %q", o.Name(), want)
	}
	if o := classic.Build(context.Background(), g, opts); o.Name() != "classic-pm" {
		t.Errorf("live classic build answered with %q", o.Name())
	}
}

// TestStorageGraphsHonourCancelledContext: under a done context the
// k-limited and SMG fixpoints stop, and their oracles answer soundly: every
// pair of same-record pointers may alias, here even two fresh allocations
// the live analyses tell apart.
func TestStorageGraphsHonourCancelledContext(t *testing.T) {
	src := `
type List [X] {
    int data;
    List *next is uniquely forward along X;
};
void f(List *p) {
    List *a;
    List *b;
    a = new List;
    b = new List;
    a->next = b;
}
`
	info := types.MustCheck(parser.MustParse(src))
	g := norm.Build(info.Func("f"), info.Env)
	opts := alias.BuildOpts{Env: info.Env, Info: info, K: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vars := g.PointerVars()
	for _, name := range []string{"klimit", "smg"} {
		f, err := alias.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.Build(context.Background(), g, opts).MayAlias(g.Exit, "a", "b") {
			t.Fatalf("%s: the live analysis should tell a and b apart", name)
		}
		o := f.Build(ctx, g, opts)
		for _, n := range g.Nodes {
			for _, p := range vars {
				for _, q := range vars {
					if g.VarTypes[p].Record == g.VarTypes[q].Record && !o.MayAlias(n, p, q) {
						t.Errorf("%s under a cancelled context: node %d denies %s, %s", name, n.ID, p, q)
					}
				}
			}
		}
	}
}

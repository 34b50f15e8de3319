package difftest

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/adds"
	"repro/internal/alias"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/norm"
)

// TestDiffOneCleanSeeds: on a healthy tree every check passes over a seed
// range for every profile — the baseline the CI smoke job scales up.
func TestDiffOneCleanSeeds(t *testing.T) {
	for _, pr := range gen.Profiles() {
		for seed := int64(0); seed < 15; seed++ {
			for _, d := range DiffOne(seed, pr, Config{}) {
				t.Fatalf("profile %s seed %d check %s:\n%s\nminimized (%d stmts):\n%s",
					pr.Name, seed, d.Check, d.Detail, d.MinStmts, d.Minimized)
			}
		}
	}
}

// dropOracle wraps a correct oracle but denies one specific alias pair —
// the planted soundness bug the acceptance criteria require the harness to
// catch and shrink.
type dropOracle struct {
	alias.Oracle
	p, q string
}

func (d dropOracle) MayAlias(n *norm.Node, a, b string) bool {
	if (a == d.p && b == d.q) || (a == d.q && b == d.p) {
		return false
	}
	return d.Oracle.MayAlias(n, a, b)
}

// TestInjectedBugCaughtAndShrunk plants a dropped matrix relation behind
// the WrapOracle hook and requires the harness to flag it as a soundness
// divergence and delta-debug the repro to at most 8 statements.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	cfg := Config{
		Checks:     []string{CheckSoundness},
		WrapOracle: func(o alias.Oracle) alias.Oracle { return dropOracle{Oracle: o, p: "b", q: "d"} },
	}
	pr, err := gen.ProfileByName("list")
	if err != nil {
		t.Fatal(err)
	}
	divs := DiffOne(1, pr, cfg)
	if len(divs) == 0 {
		t.Fatal("planted soundness bug was not caught")
	}
	d := divs[0]
	if d.Check != CheckSoundness {
		t.Fatalf("check = %s, want %s", d.Check, CheckSoundness)
	}
	if !strings.Contains(d.Detail, "misses real alias") {
		t.Fatalf("detail does not describe a missed alias:\n%s", d.Detail)
	}
	if d.MinStmts > 8 {
		t.Fatalf("minimized repro has %d statements, want <= 8:\n%s", d.MinStmts, d.Minimized)
	}
	if d.MinHash == "" || d.Hash == "" {
		t.Fatal("divergence is not content-addressed")
	}
}

// TestSMGCheckCatchesPlantedBug: drop one pair's may-alias answer from the
// path-matrix oracle; wherever the SMG derives a must-alias for that pair
// the smg cross-check must flag a fatal divergence (must on one side, no
// may on the other is never a precision delta).
func TestSMGCheckCatchesPlantedBug(t *testing.T) {
	cfg := Config{
		Checks:     []string{CheckSMG},
		WrapOracle: func(o alias.Oracle) alias.Oracle { return dropOracle{Oracle: o, p: "b", q: "c"} },
	}
	pr, err := gen.ProfileByName("list")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh region copied into both variables: the SMG derives
	// must-alias(b, c), which the planted drop of gpm's may answer turns
	// into a fatal cross-domain conflict.
	s, msg := load(gen.Generate(1, pr).WithStmts([]gen.Stmt{
		{Head: []string{"b = new TwoWayLL;"}},
		{Head: []string{"c = b;"}},
		{Head: []string{"d = c;"}},
	}))
	if msg != "" {
		t.Fatal(msg)
	}
	detail := checkSMG(s, cfg)
	if detail == "" {
		t.Fatal("planted path-matrix bug did not conflict with the SMG must-alias")
	}
	if !strings.Contains(detail, "but gpm refutes may") {
		t.Fatalf("detail does not describe the must/may conflict:\n%s", detail)
	}
}

// TestSMGCheckCountsDeltas: on a healthy tree the hostile profiles run the
// smg check clean while producing may-alias disagreements in both
// directions — those land in the counter, never in the divergence list.
func TestSMGCheckCountsDeltas(t *testing.T) {
	deltas := &DeltaCounter{}
	cfg := Config{Checks: []string{CheckSMG}, Deltas: deltas}
	for _, name := range []string{"ptree", "skiplist", "ringlol", "repair"} {
		pr, err := gen.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 10; seed++ {
			for _, d := range DiffOne(seed, pr, cfg) {
				t.Fatalf("profile %s seed %d: %s", name, seed, d.Detail)
			}
		}
	}
	snap := deltas.Snapshot()
	if snap["smg_may_only"]+snap["gpm_may_only"] == 0 {
		t.Fatal("forty hostile programs produced no precision deltas")
	}
}

// TestHavocReachesOracles: Config.Havoc hands the path-matrix oracle no
// summary table, so on the calls profile it admits more may-aliases the SMG
// refutes than the summarized run does — and both runs stay clean.
func TestHavocReachesOracles(t *testing.T) {
	pr, err := gen.ProfileByName("calls")
	if err != nil {
		t.Fatal(err)
	}
	gpmMayOnly := func(havoc bool) int {
		deltas := &DeltaCounter{}
		cfg := Config{Checks: []string{CheckSoundness, CheckSMG}, Deltas: deltas, Havoc: havoc}
		for seed := int64(0); seed < 20; seed++ {
			for _, d := range DiffOne(seed, pr, cfg) {
				t.Fatalf("havoc=%t seed %d: %s", havoc, seed, d.Detail)
			}
		}
		return deltas.Snapshot()["gpm_may_only"]
	}
	if summarized, havoc := gpmMayOnly(false), gpmMayOnly(true); havoc <= summarized {
		t.Fatalf("havoc run admitted %d gpm-only may-aliases, summarized %d: want more under havoc", havoc, summarized)
	}
}

// TestCampaignReportsDeltas: the campaign plumbs the delta counter through
// to the report even when the caller did not provide one.
func TestCampaignReportsDeltas(t *testing.T) {
	c := Campaign{
		Seed:     3,
		Budget:   12,
		Profiles: []string{"skiplist", "repair"},
		Config:   Config{Checks: []string{CheckSMG}},
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("hostile profiles diverged: %+v", rep.Divergences[0])
	}
	if len(rep.Deltas) == 0 {
		t.Fatal("campaign report carries no precision deltas")
	}
}

// TestShrinkHostileProfiles: the shrinker's statement model covers the new
// grammars — the multi-statement splice and promotion idioms unwrap, so a
// predicate on one seeded statement shrinks to exactly that statement.
func TestShrinkHostileProfiles(t *testing.T) {
	for _, name := range []string{"ptree", "skiplist", "ringlol", "repair"} {
		pr, err := gen.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := gen.Generate(5, pr)
		failing := func(q *gen.Program) bool {
			return bytes.Contains(q.Source(), []byte("b = a;"))
		}
		min := Shrink(p, failing, 0)
		if min.NumStmts() != 1 {
			t.Errorf("%s: shrunk to %d statements, want 1:\n%s", name, min.NumStmts(), min.Source())
		}
	}
}

// TestShrinkToSingleStatement: a predicate satisfied by one specific
// statement must shrink to exactly that statement.
func TestShrinkToSingleStatement(t *testing.T) {
	p := gen.Generate(7, gen.Profiles()[0])
	failing := func(q *gen.Program) bool {
		return bytes.Contains(q.Source(), []byte("b = a;"))
	}
	min := Shrink(p, failing, 0)
	if min.NumStmts() != 1 {
		t.Fatalf("shrunk to %d statements, want 1:\n%s", min.NumStmts(), min.Source())
	}
	if !failing(min) {
		t.Fatal("shrunk program no longer fails")
	}
}

// TestShrinkUnwrapsCompounds: when only a nested statement matters, the
// shrinker must strip the enclosing loop or guard.
func TestShrinkUnwrapsCompounds(t *testing.T) {
	p := gen.Generate(3, gen.Profiles()[0])
	p = p.WithStmts([]gen.Stmt{{
		Head: []string{"if (a != NULL) {"},
		Body: []gen.Stmt{{Head: []string{"b = a;"}}},
		Tail: "}",
	}})
	failing := func(q *gen.Program) bool {
		return bytes.Contains(q.Source(), []byte("b = a;"))
	}
	min := Shrink(p, failing, 0)
	if min.NumStmts() != 1 {
		t.Fatalf("shrunk to %d statements, want the unwrapped single statement:\n%s",
			min.NumStmts(), min.Source())
	}
	if bytes.Contains(min.Source(), []byte("if (a != NULL) {")) {
		t.Fatalf("guard survived shrinking:\n%s", min.Source())
	}
}

// TestCampaignDeterministic: identical seed + profile + budget produce
// byte-identical marshaled reports whatever the worker count — the
// acceptance criterion that makes triage diffs trustworthy.
func TestCampaignDeterministic(t *testing.T) {
	base := Campaign{Seed: 11, Budget: 24, Config: Config{Runs: []int64{2, 3}}}
	a := base
	a.Jobs = 1
	b := base
	b.Jobs = 4
	ra, err := a.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ja, err := marshalReportJSON(ra)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := marshalReportJSON(rb)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("reports differ across job counts:\n--- jobs=1\n%s\n--- jobs=4\n%s", ja, jb)
	}
}

// TestCampaignWritesCorpus: an injected bug produces .mini and .json
// artifacts named by content hash.
func TestCampaignWritesCorpus(t *testing.T) {
	dir := t.TempDir()
	c := Campaign{
		Seed:      1,
		Budget:    2,
		Jobs:      2,
		Profiles:  []string{"list"},
		CorpusDir: dir,
		Config: Config{
			Checks:     []string{CheckSoundness},
			WrapOracle: func(o alias.Oracle) alias.Oracle { return dropOracle{Oracle: o, p: "b", q: "c"} },
		},
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) == 0 {
		t.Fatal("campaign found nothing despite the planted bug")
	}
	d := rep.Divergences[0]
	for _, suffix := range []string{".mini", ".json"} {
		if _, err := os.ReadFile(filepath.Join(dir, d.MinHash[:16]+suffix)); err != nil {
			t.Fatalf("missing corpus artifact %s: %v", suffix, err)
		}
	}
}

// TestCampaignUnknownProfile is the config-error path.
func TestCampaignUnknownProfile(t *testing.T) {
	if _, err := (Campaign{Budget: 1, Profiles: []string{"nope"}}).Run(context.Background()); err == nil {
		t.Fatal("want error for unknown profile")
	}
}

// TestCampaignUnknownCheck: a misspelled check name is a config error, not
// a campaign that runs nothing and reports clean.
func TestCampaignUnknownCheck(t *testing.T) {
	c := Campaign{Budget: 1, Config: Config{Checks: []string{CheckSoundness, "nope"}}}
	if _, err := c.Run(context.Background()); err == nil || !strings.Contains(err.Error(), `unknown check "nope"`) {
		t.Fatalf("err = %v, want an unknown-check error", err)
	}
}

// observeSrc is a hand-written subject: before `b = NULL;` (line 10) the
// run has a == b == d.
const observeSrc = `type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
void fuzzed(TwoWayLL *a) {
    TwoWayLL *b, *d;
    b = a;
    d = a;
    b = NULL;
}
int main(int n) {
    TwoWayLL *root;
    root = new TwoWayLL;
    fuzzed(root);
    return 0;
}
`

// TestObserveReportsPlantedMiss pins the observer's contract on source no
// generator made: with one alias pair dropped from the path-matrix oracle,
// Observe reports exactly that miss, and checkSoundness reports the same
// line for the run that produced it.
func TestObserveReportsPlantedMiss(t *testing.T) {
	u := adds.MustLoad(observeSrc)
	g := norm.Build(u.Info.Func("fuzzed"), u.Info.Env)
	drop := func(o alias.Oracle) alias.Oracle {
		if o.Name() != "adds+gpm" {
			return o
		}
		return dropOracle{Oracle: o, p: "b", q: "d"}
	}
	misses, err := Observe(u, g, []alias.Oracle{drop(alias.NewGPM(g, u.Info.Env))}, func(in *interp.Interp) error {
		_, err := in.Call("main", interp.IntVal(2))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "oracle adds+gpm misses real alias b==d before 10:5"
	if len(misses) != 1 || misses[0] != want {
		t.Fatalf("misses = %q, want [%q]", misses, want)
	}
	s := Subject{Unit: u, Entry: "fuzzed", Main: "main"}
	if detail := checkSoundness(s, Config{Runs: []int64{2}, WrapOracle: drop}); detail != "soundness: "+want+" (main(2))" {
		t.Fatalf("checkSoundness detail = %q, want the observed miss", detail)
	}
}

// panicOracle fails the way a crashing analysis would: every may-alias
// query panics.
type panicOracle struct{ alias.Oracle }

func (panicOracle) MayAlias(*norm.Node, string, string) bool { panic("oracle crashed") }

// TestCampaignPanicReachesCaller: a panic inside a campaign worker must
// surface on Run's caller, where a recover can report it, instead of
// crashing the process from the worker goroutine.
func TestCampaignPanicReachesCaller(t *testing.T) {
	c := Campaign{
		Seed:     1,
		Budget:   2,
		Jobs:     2,
		Profiles: []string{"list"},
		Config: Config{
			Checks:     []string{CheckSoundness},
			WrapOracle: func(o alias.Oracle) alias.Oracle { return panicOracle{Oracle: o} },
		},
	}
	defer func() {
		if v := recover(); v != "oracle crashed" {
			t.Fatalf("recovered %v, want the oracle's panic", v)
		}
	}()
	c.Run(context.Background()) //nolint:errcheck
	t.Fatal("Run returned instead of re-raising the worker's panic")
}

package soundness

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/adds"
	"repro/internal/alias"
	"repro/internal/difftest"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/structures"
)

// fuzzSeed offsets every seed range below, so a campaign failure found by
// addsfuzz replays here directly:
//
//	go test ./internal/soundness/ -addsfuzz.seed=4217
//
// The ADDS_FUZZ_SEED environment variable is the CI-friendly spelling;
// the flag wins when both are set.
var fuzzSeed = flag.Int64("addsfuzz.seed", 0, "base seed for the soundness fuzz tests")

func baseSeed(t *testing.T) int64 {
	if *fuzzSeed != 0 {
		return *fuzzSeed
	}
	if env := os.Getenv("ADDS_FUZZ_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("ADDS_FUZZ_SEED: %v", err)
		}
		return v
	}
	return 0
}

// loadGenerated renders and loads one generated program, failing the test
// on any generator regression.
func loadGenerated(t *testing.T, seed int64, pr gen.Profile) (*adds.Unit, []byte) {
	t.Helper()
	src := gen.Generate(seed, pr).Source()
	u, err := adds.Load(src)
	if err != nil {
		t.Fatalf("seed %d: generated program does not load: %v\n%s", seed, err, src)
	}
	return u, src
}

// runSoundness generates 150 programs of the profile from seed base on,
// executes fuzzed on each against the built roots, and checks every
// observed alias against every oracle — the shared body of the list and
// tree fuzzers, driven by internal/gen.
func runSoundness(t *testing.T, profile string, base int64, build func(h *interp.Heap, run int) *interp.Node) {
	t.Helper()
	pr, err := gen.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	for seed := base; seed < base+150; seed++ {
		u, src := loadGenerated(t, seed, pr)
		g := norm.Build(u.Info.Func("fuzzed"), u.Info.Env)
		oracles := fourOracles(t, g, u.Info.Env)
		for run := 0; run < 3; run++ {
			misses, err := difftest.Observe(u, g, oracles, func(in *interp.Interp) error {
				_, err := in.Call("fuzzed", interp.PtrVal(build(in.Heap, run)))
				return err
			})
			// Mutations can create cycles whose traversal exhausts the step
			// budget, or dangling NULL derefs the guards missed; partial
			// executions still produced valid observations.
			if err != nil && !strings.Contains(err.Error(), "step budget") && !strings.Contains(err.Error(), "NULL") {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
			for _, m := range misses {
				t.Errorf("seed %d run %d: %s\n%s", seed, run, m, src)
			}
		}
	}
}

// TestFuzzOracleSoundness generates random pointer-shuffling list programs
// (via internal/gen, the same generator addsfuzz campaigns use), executes
// them, and verifies every dynamically observed alias is admitted by every
// oracle. This covers states the hand-written fixtures cannot: arbitrary
// interleavings of abstraction breaks and repairs.
func TestFuzzOracleSoundness(t *testing.T) {
	runSoundness(t, "list", baseSeed(t), func(h *interp.Heap, run int) *interp.Node {
		return structures.TwoWayList(h, nil, 3+run*2)
	})
}

// TestFuzzTreeOracleSoundness is the tree counterpart: combined-group
// (Defs 4.7-4.8) and backward (Def 4.6) rules far beyond the fixtures.
func TestFuzzTreeOracleSoundness(t *testing.T) {
	runSoundness(t, "tree", baseSeed(t)+1000, func(h *interp.Heap, run int) *interp.Node {
		return perfectTree(h, 3+run)
	})
}

// TestFuzzAnalysisTermination stresses the fixed-point machinery with
// larger random programs: the analysis must terminate and never panic.
func TestFuzzAnalysisTermination(t *testing.T) {
	big := gen.Profile{Name: "big-list", Structure: "TwoWayLL", MinStmts: 40, MaxStmts: 40, Mutate: true}
	base := baseSeed(t) + 100
	for seed := base; seed < base+30; seed++ {
		u, _ := loadGenerated(t, seed, big)
		g := norm.Build(u.Info.Func("fuzzed"), u.Info.Env)
		o := alias.NewGPM(g, u.Info.Env)
		// Exercise loop-carried queries on every loop too.
		for _, l := range g.Loops {
			o.LoopCarried(l, "a", "b")
			o.LoopCarried(l, "b", "b")
		}
	}
}

package soundness

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/token"
	"repro/internal/source/types"
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
func loadGenerated(t *testing.T, seed int64, pr gen.Profile) (*types.Info, []byte) {
	t.Helper()
	src := gen.Generate(seed, pr).Source()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, src)
	}
	info, errs := types.Check(prog)
	if len(errs) > 0 {
		t.Fatalf("seed %d: generated program does not check: %v\n%s", seed, errs[0], src)
	}
	return info, src
}

// runSoundness executes fuzzed against the given roots and checks every
// observed alias against every oracle — the shared body of the list and
// tree fuzzers, now driven by internal/gen instead of per-test generators.
func runSoundness(t *testing.T, seed int64, pr gen.Profile, build func(h *interp.Heap, run int) *interp.Node) {
	t.Helper()
	info, src := loadGenerated(t, seed, pr)
	fi := info.Func("fuzzed")
	g := norm.Build(fi, info.Env)

	oracles := []alias.Oracle{
		alias.NewGPM(g, info.Env),
		alias.NewClassic(g, info.Env),
		alias.NewConservative(g),
		kLimited(t, g, info.Env),
	}

	for run := 0; run < 3; run++ {
		in := interp.New(info.Prog)
		in.MaxSteps = 1 << 16
		tr := &tracer{
			ptrVars:  fi.PointerVars(),
			observed: map[token.Pos]map[[2]string]bool{},
		}
		in.Tracer = tr
		root := build(in.Heap, run)
		if _, err := in.Call("fuzzed", interp.PtrVal(root)); err != nil {
			// Mutations can create cycles whose traversal exhausts the
			// step budget, or dangling NULL derefs the guards missed;
			// partial executions still produced valid observations.
			if !strings.Contains(err.Error(), "step budget") &&
				!strings.Contains(err.Error(), "NULL") {
				t.Fatalf("seed %d: %v\n%s", seed, err, src)
			}
		}
		for pos, pairs := range tr.observed {
			n := nodeAtPos(g, pos)
			if n == nil {
				continue
			}
			for pair := range pairs {
				for _, o := range oracles {
					if !o.MayAlias(n, pair[0], pair[1]) {
						t.Errorf("seed %d run %d: oracle %s misses real alias %s==%s before %s\n%s",
							seed, run, o.Name(), pair[0], pair[1], pos, src)
					}
				}
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
	const programs = 150
	pr, err := gen.ProfileByName("list")
	if err != nil {
		t.Fatal(err)
	}
	base := baseSeed(t)
	for seed := base; seed < base+programs; seed++ {
		runSoundness(t, seed, pr, func(h *interp.Heap, run int) *interp.Node {
			return structures.TwoWayList(h, nil, 3+run*2)
		})
	}
}

// TestFuzzTreeOracleSoundness is the tree counterpart: combined-group
// (Defs 4.7-4.8) and backward (Def 4.6) rules far beyond the fixtures.
func TestFuzzTreeOracleSoundness(t *testing.T) {
	const programs = 150
	pr, err := gen.ProfileByName("tree")
	if err != nil {
		t.Fatal(err)
	}
	base := baseSeed(t) + 1000
	for seed := base; seed < base+programs; seed++ {
		runSoundness(t, seed, pr, func(h *interp.Heap, run int) *interp.Node {
			return perfectTree(h, 3+run)
		})
	}
}

// TestFuzzAnalysisTermination stresses the fixed-point machinery with
// larger random programs: the analysis must terminate and never panic.
func TestFuzzAnalysisTermination(t *testing.T) {
	big := gen.Profile{Name: "big-list", Structure: "TwoWayLL", MinStmts: 40, MaxStmts: 40, Mutate: true}
	base := baseSeed(t) + 100
	for seed := base; seed < base+30; seed++ {
		info, _ := loadGenerated(t, seed, big)
		fi := info.Func("fuzzed")
		g := norm.Build(fi, info.Env)
		o := alias.NewGPM(g, info.Env)
		// Exercise loop-carried queries on every loop too.
		for _, l := range g.Loops {
			o.LoopCarried(l, "a", "b")
			o.LoopCarried(l, "b", "b")
		}
	}
}

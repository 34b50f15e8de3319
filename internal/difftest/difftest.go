// Package difftest is the differential-testing half of the addsfuzz
// subsystem. For every program the generator emits it orchestrates the
// oracle pairs:
//
//  1. soundness — concrete interpreter traces vs. the static alias
//     oracles: every dynamically observed alias must be admitted
//     (the paper's core claim, Defs 4.1-4.10);
//  2. transformation equivalence — the original program vs. its
//     xform-transformed variants (Unroll, LICM, software pipelining) must
//     be observationally equivalent on concrete inputs;
//  3. analysis consistency — the path-matrix engine must produce identical
//     results regardless of worker count (the parallel engine, sharing
//     rows, entries and cached summaries across goroutines, vs. the
//     sequential path);
//  4. smg — the SMG-lite oracle vs. the path-matrix oracle: a must-alias
//     either derives that the other refutes is always a fatal bug in one of
//     them, while bare may-alias disagreements are precision deltas,
//     counted (Config.Deltas) but never failures.
//
// A cheaper check runs the addslint validation over every generated
// program: lint coverage on inputs no human would write.
//
// Failures are classified as Divergences, content-addressed with the same
// SHA-256 scheme as internal/service, and delta-debugged down to minimal
// statement lists by a structure-aware shrinker (Shrink).
package difftest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/alias"
	"repro/internal/alias/smg"
	"repro/internal/core/pathmatrix"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/service"
	"repro/internal/source/ast"
	"repro/internal/source/parser"
	"repro/internal/source/token"
	"repro/internal/source/types"
)

// Check names, in the order DiffOne runs them.
const (
	CheckLint        = "lint"
	CheckSoundness   = "soundness"
	CheckXform       = "xform"
	CheckConsistency = "consistency"
	CheckSMG         = "smg"
)

// noCancel is the context for in-process analyses that are bounded by
// construction (tiny generated programs) and never need cancellation.
var noCancel = context.Background()

// maxSteps bounds each interpretation (the soundness fuzz budget), and
// shrinkBudget caps the shrinker's check executions per divergence.
const (
	maxSteps     = 1 << 16
	shrinkBudget = 400
)

// AllChecks returns every check name in canonical order.
func AllChecks() []string {
	return []string{CheckLint, CheckSoundness, CheckXform, CheckConsistency, CheckSMG}
}

// Config tunes one differential run.
type Config struct {
	// Checks selects which oracle pairs run; nil means all.
	Checks []string
	// Runs are the main() size arguments each program executes under;
	// nil means {2, 3, 5}.
	Runs []int64
	// WrapOracle, when set, wraps every alias oracle before the soundness
	// comparison. It is the fault-injection seam: tests wrap a correct
	// oracle in one that drops matrix relations and assert the harness
	// catches and shrinks the planted bug.
	WrapOracle func(alias.Oracle) alias.Oracle
	// Havoc runs the path-matrix oracles without interprocedural summaries:
	// every call statement applies the all-args havoc (a nil summary table),
	// pitting the conservative fallback against the same ground truth.
	Havoc bool
	// Deltas, when set, accumulates precision deltas from the smg check:
	// program points where one oracle admits a may-alias the other refutes.
	// Deltas are triage signal, never failures — only must-alias conflicts
	// fail the check.
	Deltas *DeltaCounter
}

// DeltaCounter tallies precision deltas by kind, safely across campaign
// workers. The keys name which oracle was the permissive one
// ("smg_may_only", "gpm_may_only").
type DeltaCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

// Add increments one delta kind.
func (d *DeltaCounter) Add(key string, n int) {
	if n == 0 {
		return
	}
	d.mu.Lock()
	if d.counts == nil {
		d.counts = map[string]int{}
	}
	d.counts[key] += n
	d.mu.Unlock()
}

// Snapshot copies the tallies (nil when nothing was counted).
func (d *DeltaCounter) Snapshot() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.counts) == 0 {
		return nil
	}
	out := make(map[string]int, len(d.counts))
	for k, v := range d.counts {
		out[k] = v
	}
	return out
}

func (c Config) runs() []int64 {
	if len(c.Runs) == 0 {
		return []int64{2, 3, 5}
	}
	return c.Runs
}

func (c Config) checks() []string {
	if len(c.Checks) == 0 {
		return AllChecks()
	}
	return c.Checks
}

// Divergence is one confirmed disagreement between a pair of oracles,
// minimized and content-addressed for triage.
type Divergence struct {
	Seed      int64  `json:"seed"`
	Profile   string `json:"profile"`
	Structure string `json:"structure"`
	Check     string `json:"check"`
	Detail    string `json:"detail"`
	// Hash content-addresses the original source (service.Key scheme).
	Hash   string `json:"hash"`
	Source string `json:"source"`
	// Minimized is the shrunk repro; MinHash its content address;
	// MinStmts the statement count of the shrunk fuzzed body.
	Minimized string `json:"minimized"`
	MinHash   string `json:"minHash"`
	MinStmts  int    `json:"minStmts"`
}

// DiffOne generates the program for (seed, profile), runs every configured
// check, and returns one shrunk divergence per failing check. A clean
// program returns nil.
func DiffOne(seed int64, pr gen.Profile, cfg Config) []Divergence {
	p := gen.Generate(seed, pr)
	var out []Divergence
	for _, name := range cfg.checks() {
		check := checkFn(name)
		if check == nil {
			continue
		}
		detail := check(p, cfg)
		if detail == "" {
			continue
		}
		min := Shrink(p, func(q *gen.Program) bool { return check(q, cfg) != "" }, shrinkBudget)
		src := string(p.Source())
		minSrc := string(min.Source())
		out = append(out, Divergence{
			Seed:      seed,
			Profile:   pr.Name,
			Structure: p.TypeName,
			Check:     name,
			Detail:    detail,
			Hash:      service.Key(src),
			Source:    src,
			Minimized: minSrc,
			MinHash:   service.Key(minSrc),
			MinStmts:  min.NumStmts(),
		})
	}
	return out
}

// checkFn maps a check name to its implementation. Every check returns ""
// when the program is clean, or a deterministic description of the first
// (in a sorted order) divergence.
func checkFn(name string) func(*gen.Program, Config) string {
	switch name {
	case CheckLint:
		return checkLint
	case CheckSoundness:
		return checkSoundness
	case CheckXform:
		return checkXform
	case CheckConsistency:
		return checkConsistency
	case CheckSMG:
		return checkSMG
	}
	return nil
}

// load parses and type-checks a generated program. Generated programs are
// well-typed by construction, so a failure here is itself a divergence
// (a generator bug), reported by every check as "does not load".
func load(p *gen.Program) (*ast.Program, *types.Info, string) {
	src := p.Source()
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, nil, fmt.Sprintf("generated program does not parse: %v", err)
	}
	info, errs := types.Check(prog)
	if len(errs) > 0 {
		return nil, nil, fmt.Sprintf("generated program does not check: %v", errs[0])
	}
	return prog, info, ""
}

// tolerated reports interpreter errors that are expected consequences of
// random mutation (cycles exhaust the step budget; a shuffled structure
// dereferences NULL behind a stale guard) rather than harness findings.
func tolerated(err error) bool {
	return err == nil ||
		strings.Contains(err.Error(), "step budget") ||
		strings.Contains(err.Error(), "NULL")
}

// ---------------------------------------------------------------------------
// Check 1: lint (the addslint pair — run main, validate the final heap)

// checkLint interprets the self-contained main for every run size and
// fails on any runtime error: generated programs guard every dereference
// and bound every loop, so an execution failure means the generator and
// the interpreter disagree about the language. For profiles that never
// mutate pointer fields the final heap must additionally satisfy every
// ADDS declaration (Defs 4.2-4.9), exactly as cmd/addslint checks it.
func checkLint(p *gen.Program, cfg Config) string {
	prog, info, msg := load(p)
	if msg != "" {
		return msg
	}
	for _, n := range cfg.runs() {
		in := interp.New(prog)
		in.MaxSteps = maxSteps
		if _, err := in.Call(p.Main(), interp.IntVal(n)); err != nil {
			return fmt.Sprintf("lint: main(%d) failed: %v", n, err)
		}
		if p.Profile.Mutate {
			continue
		}
		if vs := interp.Check(info.Env, in.Heap.Live()...); len(vs) > 0 {
			return fmt.Sprintf("lint: main(%d) left an invalid heap under a read-only profile: %s",
				n, vs[0].String())
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Check 2: soundness (interpreter traces vs. static alias oracles)

// tracer records observed aliases keyed by statement position (the same
// ground-truth instrument the soundness property tests use).
type tracer struct {
	ptrVars  []string
	observed map[token.Pos]map[[2]string]bool
}

func (tr *tracer) AtStmt(s ast.Stmt, vars map[string]interp.Value) {
	pos := s.Pos()
	for i, p := range tr.ptrVars {
		vp, ok := vars[p]
		if !ok || !vp.IsPtr || vp.Ptr == nil {
			continue
		}
		for _, q := range tr.ptrVars[i+1:] {
			vq, ok := vars[q]
			if !ok || !vq.IsPtr || vq.Ptr == nil {
				continue
			}
			if vp.Ptr == vq.Ptr {
				if tr.observed[pos] == nil {
					tr.observed[pos] = map[[2]string]bool{}
				}
				tr.observed[pos][[2]string{p, q}] = true
			}
		}
	}
}

// nodeAtPos returns the earliest CFG node lowered from a statement at the
// position (the program point "before the statement").
func nodeAtPos(g *norm.Graph, pos token.Pos) *norm.Node {
	for _, n := range g.Nodes {
		if n.Kind == norm.NodeStmt && n.Stmt.Pos == pos {
			return n
		}
	}
	return nil
}

// checkSoundness executes main (which builds the structure in mini and
// calls the fuzzed function), records every alias the run actually
// produced inside fuzzed, and requires every static oracle to admit each
// one. An alias an oracle rules out is a soundness divergence — the class
// of bug the whole subsystem exists to catch.
func checkSoundness(p *gen.Program, cfg Config) string {
	prog, info, msg := load(p)
	if msg != "" {
		return msg
	}
	fi := info.Func(p.Entry())
	if fi == nil {
		return "" // entry shrunk away: nothing to check
	}
	g := norm.Build(fi, info.Env)
	// Every registered oracle is built the way the daemon builds it. The
	// path-matrix oracles take the interprocedural summary table unless the
	// run is havoc-only, so the differential run exercises the summary call
	// transfer against the interpreter's ground truth; the classic factory
	// analyzes under the table's memoized stripped table.
	opts := alias.BuildOpts{Env: info.Env, K: 2}
	if !cfg.Havoc {
		opts.Summaries = pathmatrix.ComputeSummaries(info, info.Env)
	}
	var oracles []alias.Oracle
	for _, f := range alias.Factories() {
		o := f.Build(noCancel, g, opts)
		if cfg.WrapOracle != nil {
			o = cfg.WrapOracle(o)
		}
		oracles = append(oracles, o)
	}

	var misses []string
	for _, n := range cfg.runs() {
		in := interp.New(prog)
		in.MaxSteps = maxSteps
		tr := &tracer{ptrVars: fi.PointerVars(), observed: map[token.Pos]map[[2]string]bool{}}
		in.Tracer = tr
		if _, err := in.Call(p.Main(), interp.IntVal(n)); !tolerated(err) {
			return fmt.Sprintf("soundness: main(%d) failed: %v", n, err)
		}
		for pos, pairs := range tr.observed {
			node := nodeAtPos(g, pos)
			if node == nil {
				continue
			}
			for pair := range pairs {
				for _, o := range oracles {
					if !o.MayAlias(node, pair[0], pair[1]) {
						misses = append(misses, fmt.Sprintf(
							"soundness: oracle %s misses real alias %s==%s before %s (main(%d))",
							o.Name(), pair[0], pair[1], pos, n))
					}
				}
			}
		}
	}
	if len(misses) == 0 {
		return ""
	}
	sort.Strings(misses) // map iteration order must not leak into reports
	return misses[0]
}

// ---------------------------------------------------------------------------
// Check 4: analysis consistency (sequential vs. parallel engine)

// checkConsistency analyzes the whole program twice — one worker vs. four
// — and requires byte-identical matrices for every function: the parallel
// engine, whose goroutines share immutable paths, copy-on-write entries and
// cached summaries, must be observationally indistinguishable from the
// sequential one.
func checkConsistency(p *gen.Program, cfg Config) string {
	_, info, msg := load(p)
	if msg != "" {
		return msg
	}
	seq, err := pathmatrix.AnalyzeProgramCtx(noCancel, info, info.Env, 1)
	if err != nil {
		return fmt.Sprintf("consistency: sequential analysis failed: %v", err)
	}
	par, err := pathmatrix.AnalyzeProgramCtx(noCancel, info, info.Env, 4)
	if err != nil {
		return fmt.Sprintf("consistency: parallel analysis failed: %v", err)
	}
	names := make([]string, 0, len(seq))
	for name := range seq {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pr, ok := par[name]
		if !ok {
			return fmt.Sprintf("consistency: function %s missing from parallel result", name)
		}
		if a, b := seq[name].Result.String(), pr.Result.String(); a != b {
			return fmt.Sprintf("consistency: %s: sequential and parallel matrices differ:\n--- seq\n%s\n--- par\n%s",
				name, a, b)
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Check 5: smg (SMG-lite vs. path matrices — cross-domain differential)

// checkSMG runs the GPM and SMG-lite oracles over the same function and
// compares every unordered pointer-variable pair at every statement node the
// SMG analysis reached. The two domains approximate the heap completely
// differently (declared path relations vs. segment summaries), so the triage
// policy is asymmetric:
//
//   - a must-alias one oracle derives that the other refutes outright
//     (must on one side, no may on the other) is a fatal divergence —
//     whichever direction it goes, one of the two analyses is unsound.
//     The one exemption is definitional, not a precision gap: the path
//     matrix's must-alias means "same value", which both variables being
//     NULL satisfies, while SMG aliasing is about shared non-nil objects —
//     so a GPM must-alias only contradicts an SMG may-refutation when the
//     SMG shows the common value cannot be nil;
//   - a bare may-alias disagreement is an expected precision delta (each
//     domain refutes pairs the other cannot) and is only counted into
//     Config.Deltas, keyed by which oracle was the permissive one.
func checkSMG(p *gen.Program, cfg Config) string {
	_, info, msg := load(p)
	if msg != "" {
		return msg
	}
	fi := info.Func(p.Entry())
	if fi == nil {
		return "" // entry shrunk away: nothing to check
	}
	g := norm.Build(fi, info.Env)
	var gpmTab *pathmatrix.SummaryTable
	if !cfg.Havoc {
		gpmTab = pathmatrix.ComputeSummaries(info, info.Env)
	}
	// WrapOracle wraps the path-matrix side only: the SMG side must stay the
	// concrete analysis because the triage consults its MayBeNil refinement.
	var gpm alias.Oracle = alias.NewGPMWith(g, info.Env, gpmTab)
	if cfg.WrapOracle != nil {
		gpm = cfg.WrapOracle(gpm)
	}
	sm := smg.Analyze(g, info.Env)

	vars := fi.PointerVars()
	var fatal []string
	smgMayOnly, gpmMayOnly := 0, 0
	for _, n := range g.Nodes {
		if n.Kind != norm.NodeStmt || sm.Before[n.ID] == nil {
			continue
		}
		for i, a := range vars {
			for _, b := range vars[i+1:] {
				sMay, gMay := sm.MayAlias(n, a, b), gpm.MayAlias(n, a, b)
				switch {
				case sm.MustAlias(n, a, b) && !gMay:
					fatal = append(fatal, fmt.Sprintf(
						"smg: smg derives must-alias %s==%s before node %d but gpm refutes may", a, b, n.ID))
				case gpm.MustAlias(n, a, b) && !sMay && !(sm.MayBeNil(n, a) && sm.MayBeNil(n, b)):
					// Same value per GPM, no shared object per SMG, and the
					// vacuous both-NULL valuation is ruled out: contradiction.
					fatal = append(fatal, fmt.Sprintf(
						"smg: gpm derives must-alias %s==%s before node %d but smg refutes may", a, b, n.ID))
				case sMay && !gMay:
					smgMayOnly++
				case gMay && !sMay:
					gpmMayOnly++
				}
			}
		}
	}
	if cfg.Deltas != nil {
		cfg.Deltas.Add("smg_may_only", smgMayOnly)
		cfg.Deltas.Add("gpm_may_only", gpmMayOnly)
	}
	if len(fatal) == 0 {
		return ""
	}
	sort.Strings(fatal)
	return fatal[0]
}

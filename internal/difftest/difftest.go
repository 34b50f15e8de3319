// Package difftest is the differential-testing half of the addsfuzz
// subsystem. For every program the generator emits it loads one Subject and
// runs the checks on it, in this order:
//
//  1. lint — run main and, for read-only profiles, validate the final heap
//     against every ADDS declaration (the addslint pair): lint coverage on
//     inputs no human would write;
//  2. soundness — concrete interpreter traces vs. the static alias
//     oracles: every dynamically observed alias must be admitted
//     (the paper's core claim, Defs 4.1-4.10). Observe is the one alias
//     observer, shared with the soundness test harnesses;
//  3. xform — the original program vs. its xform-transformed variants
//     (Unroll, LICM, software pipelining) must be observationally
//     equivalent on concrete inputs;
//  4. consistency — the path-matrix engine must produce identical
//     matrices at every node regardless of worker count (the parallel
//     engine, sharing rows, entries and cached summaries across
//     goroutines, vs. the sequential path);
//  5. smg — the SMG-lite oracle vs. the path-matrix oracle: a must-alias
//     either derives that the other refutes is always a fatal bug in one of
//     them, while bare may-alias disagreements are precision deltas,
//     counted (Config.Deltas) but never failures.
//
// Failures are classified as Divergences, content-addressed with the same
// SHA-256 scheme as the daemon's cache (respond.Key), and delta-debugged
// down to minimal statement lists by a structure-aware shrinker (Shrink).
package difftest

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/adds"
	"repro/internal/alias"
	"repro/internal/alias/smg"
	"repro/internal/core/pathmatrix"
	"repro/internal/gen"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/respond"
	"repro/internal/source/ast"
	"repro/internal/source/token"
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
	// Checks selects which checks run, by name; nil means all.
	// Campaign.Run rejects a name that is not in AllChecks.
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
	// Hash content-addresses the original source (respond.Key scheme).
	Hash   string `json:"hash"`
	Source string `json:"source"`
	// Minimized is the shrunk repro; MinHash its content address;
	// MinStmts the statement count of the shrunk fuzzed body.
	Minimized string `json:"minimized"`
	MinHash   string `json:"minHash"`
	MinStmts  int    `json:"minStmts"`
}

// Subject is one loaded program under test, the input of every check. Entry
// names the function the checks analyze and Main the self-contained driver
// that builds its inputs. Seed seeds the xform check's input heaps, and
// ReadOnly makes the lint check require a valid final heap.
type Subject struct {
	Unit        *adds.Unit
	Entry, Main string
	Seed        int64
	ReadOnly    bool
}

// DiffOne generates the program for (seed, profile), loads it once, runs
// every configured check on it, and returns one shrunk divergence per
// failing check. A clean program returns nil. Campaign.Run rejects unknown
// check names; DiffOne skips them.
func DiffOne(seed int64, pr gen.Profile, cfg Config) []Divergence {
	p := gen.Generate(seed, pr)
	s, loadErr := load(p)
	var out []Divergence
	for _, name := range cfg.checks() {
		check, ok := checkFns[name]
		if !ok {
			continue
		}
		detail := loadErr
		if detail == "" {
			detail = check(s, cfg)
		}
		if detail == "" {
			continue
		}
		min := Shrink(p, func(q *gen.Program) bool {
			s, msg := load(q)
			return msg != "" || check(s, cfg) != ""
		}, shrinkBudget)
		src := string(p.Source())
		minSrc := string(min.Source())
		out = append(out, Divergence{
			Seed:      seed,
			Profile:   pr.Name,
			Structure: p.TypeName,
			Check:     name,
			Detail:    detail,
			Hash:      respond.Key(src),
			Source:    src,
			Minimized: minSrc,
			MinHash:   respond.Key(minSrc),
			MinStmts:  min.NumStmts(),
		})
	}
	return out
}

// checkFns maps each check name to its implementation. Every check returns
// "" when the subject is clean, or a deterministic description of the first
// (in a sorted order) divergence.
var checkFns = map[string]func(Subject, Config) string{
	CheckLint:        checkLint,
	CheckSoundness:   checkSoundness,
	CheckXform:       checkXform,
	CheckConsistency: checkConsistency,
	CheckSMG:         checkSMG,
}

// load loads a generated program into the Subject every check reads.
// Generated programs are well-typed by construction, so a load failure is
// itself a divergence (a generator bug), which every check reports.
func load(p *gen.Program) (Subject, string) {
	u, err := adds.Load(p.Source())
	if err != nil {
		return Subject{}, fmt.Sprintf("generated program does not load: %v", err)
	}
	return Subject{Unit: u, Entry: p.Entry(), Main: p.Main(), Seed: p.Seed, ReadOnly: !p.Profile.Mutate}, ""
}

// ---------------------------------------------------------------------------
// Check 1: lint (the addslint pair — run main, validate the final heap)

// checkLint interprets the self-contained main for every run size and
// fails on any runtime error: generated programs guard every dereference
// and bound every loop, so an execution failure means the generator and
// the interpreter disagree about the language. For profiles that never
// mutate pointer fields the final heap must additionally satisfy every
// ADDS declaration (Defs 4.2-4.9), exactly as cmd/addslint checks it.
func checkLint(s Subject, cfg Config) string {
	for _, n := range cfg.runs() {
		in := s.Unit.Interp()
		in.MaxSteps = maxSteps
		if _, err := in.Call(s.Main, interp.IntVal(n)); err != nil {
			return fmt.Sprintf("lint: main(%d) failed: %v", n, err)
		}
		if !s.ReadOnly {
			continue
		}
		if vs := s.Unit.CheckHeap(in.Heap.Live()...); len(vs) > 0 {
			return fmt.Sprintf("lint: main(%d) left an invalid heap under a read-only profile: %s",
				n, vs[0].String())
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Check 2: soundness (interpreter traces vs. static alias oracles)

// observed is one alias a run produced: p and q named the same node before
// the statement at pos.
type observed struct {
	pos  token.Pos
	p, q string
}

// tracer records every alias among ptrVars before each statement.
type tracer struct {
	ptrVars []string
	seen    map[observed]bool
}

func (tr *tracer) AtStmt(s ast.Stmt, vars map[string]interp.Value) {
	for i, p := range tr.ptrVars {
		if vp := vars[p]; vp.IsPtr && vp.Ptr != nil {
			for _, q := range tr.ptrVars[i+1:] {
				if vq := vars[q]; vq.IsPtr && vq.Ptr == vp.Ptr {
					tr.seen[observed{s.Pos(), p, q}] = true
				}
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

// Observe is the one alias observer: it runs u under a tracer that records
// every alias among the pointer variables of g's function, then asks each
// oracle to admit each one before the statement where it was seen. run makes
// the call on in (bounded by maxSteps), building its arguments on in.Heap.
// Observe returns the sorted misses, even from a failed run, and run's error.
func Observe(u *adds.Unit, g *norm.Graph, oracles []alias.Oracle, run func(*interp.Interp) error) ([]string, error) {
	in := u.Interp()
	in.MaxSteps = maxSteps
	tr := &tracer{ptrVars: g.Fn.PointerVars(), seen: map[observed]bool{}}
	in.Tracer = tr
	err := run(in)
	var misses []string
	for a := range tr.seen {
		node := nodeAtPos(g, a.pos)
		if node == nil {
			continue // a statement of another function, or one lowered to no node
		}
		for _, o := range oracles {
			if !o.MayAlias(node, a.p, a.q) {
				misses = append(misses, fmt.Sprintf("oracle %s misses real alias %s==%s before %s", o.Name(), a.p, a.q, a.pos))
			}
		}
	}
	sort.Strings(misses) // map iteration order must not leak into reports
	return misses, err
}

// checkSoundness executes main (which builds the structure in mini and
// calls the fuzzed function) under Observe with every registered oracle.
// An alias an oracle rules out is a soundness divergence — the class of
// bug the whole subsystem exists to catch.
func checkSoundness(s Subject, cfg Config) string {
	info := s.Unit.Info
	fi := info.Func(s.Entry)
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
		found, err := Observe(s.Unit, g, oracles, func(in *interp.Interp) error {
			_, err := in.Call(s.Main, interp.IntVal(n))
			return err
		})
		// Random mutation can make cycles that exhaust the step budget, or
		// dereference NULL behind a stale guard: not a harness finding.
		if err != nil && !strings.Contains(err.Error(), "step budget") && !strings.Contains(err.Error(), "NULL") {
			return fmt.Sprintf("soundness: main(%d) failed: %v", n, err)
		}
		for _, m := range found {
			misses = append(misses, fmt.Sprintf("soundness: %s (main(%d))", m, n))
		}
	}
	if len(misses) == 0 {
		return ""
	}
	return slices.Min(misses)
}

// ---------------------------------------------------------------------------
// Check 4: analysis consistency (sequential vs. parallel engine)

// checkConsistency analyzes the whole program twice — one worker vs. four
// — and requires byte-identical matrices before every node of every
// function, compared in their wire encoding: the parallel engine, whose
// goroutines share immutable paths, copy-on-write entries and cached
// summaries, must be observationally indistinguishable from the sequential
// one, at loop heads as much as at exit.
func checkConsistency(s Subject, cfg Config) string {
	info := s.Unit.Info
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
	var a, b []byte // one encoding buffer per side, reused across nodes
	for _, name := range names {
		pr, ok := par[name]
		if !ok {
			return fmt.Sprintf("consistency: function %s missing from parallel result", name)
		}
		sb, pb := seq[name].Result.Before, pr.Result.Before
		if len(sb) != len(pb) {
			return fmt.Sprintf("consistency: %s: sequential graph has %d nodes, parallel %d", name, len(sb), len(pb))
		}
		for id, sm := range sb {
			pm := pb[id]
			if sm != nil && pm != nil { // nil: unreached; a and b still hold an equal pair
				a, b = sm.AppendJSON(a[:0]), pm.AppendJSON(b[:0])
			}
			if (sm == nil) != (pm == nil) || !bytes.Equal(a, b) {
				return fmt.Sprintf("consistency: %s: sequential and parallel matrices differ before node %d:\n--- seq\n%s\n--- par\n%s",
					name, id, sm, pm)
			}
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
func checkSMG(s Subject, cfg Config) string {
	info := s.Unit.Info
	fi := info.Func(s.Entry)
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

package pathmatrix

import (
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/source/ast"
	"repro/internal/source/types"
)

// Compositional interprocedural analysis: per-function summaries.
//
// A summary describes one function as an entry-shape → exit-effect
// abstraction, computed once per function body from a generic entry state
// (the same "parameters of one record type may be arbitrarily related"
// assumption initParams makes for every analysis). The trick is the paper's
// primed-variable device from the iteration matrix, applied at function
// granularity: each pointer formal p gets a shadow p' seeded as a certain
// alias of p and never assigned, so at exit the matrix rows between shadows
// relate the ENTRY values of the formals — exactly the values the caller's
// actuals hold at the call site.
//
// Soundness rests on three properties of the mini language: arguments are
// passed by value, there are no globals, and functions cannot return
// pointers. A call therefore never changes any caller variable binding —
// only heap links reachable from the actuals. Aliasing between caller
// variables is exactly preserved across any call, and a caller entry (x, y)
// can change only if a path between them routes through a mutated node.
// Every mutated link emanates from a node whose record type the callee
// wrote (the summary's Writes set), and every node on a path from x has a
// type reachable from x's record type, so an entry whose source variable's
// reachable types are disjoint from Writes is untouched. That is the
// type-taint test the call transfer applies (transfer.go, applySummary).
//
// Recursive functions (any call cycle, including self-calls) get no
// summary; calls to them keep the sound all-args havoc. The same fallback
// guards two call-site preconditions the generic entry state bakes in: the
// caller matrix must be violation-free (absent entries are only "provably
// unrelated" then), and actuals bound to formals of different record types
// must be provably unrelated (the generic entry assumes exactly that).
//
// Alongside the row summaries, the table records per-function EFFECTS for
// every in-program function, recursive ones included: the record types the
// function may shape-mutate and whether it shape-mutates at all. Effects
// make two call-site judgements possible that rows alone cannot: a call to
// a function that never stores a pointer field is a path-matrix no-op, and
// a call to a shape mutator whose generic-entry validation does not cover
// the call site's actual aliasing must taint the caller's validity (the
// callee may have broken the declared abstraction without its own analysis
// noticing — store validation only triggers on explicitly denoted
// relations, and the generic entry denotes none).

// Summarize reports that the facade and AnalyzeProgramCtx transfer calls
// through summaries. It is always true; the havoc-only analysis is a nil
// table passed to AnalyzeCtxWith.
const Summarize = true

// summaryCap bounds the process-wide summary cache (whole summaries, not
// bytes; summaries are a few matrix rows each).
const summaryCap = 1024

// FuncSummary is the cached entry-shape → exit-effect abstraction of one
// function. It is frozen after construction and may be shared by any number
// of concurrent analyses.
type FuncSummary struct {
	Fn           string
	Formals      []string // pointer formal names, declaration order
	FormalPos    []int    // argument position of each pointer formal
	FormalRecord []string // record type of each pointer formal

	// Rows holds the exit relations between the entry values of each
	// ordered pair of pointer formals, keyed by formal name pair. Alias
	// relations are ignored at instantiation (caller aliasing is exactly
	// preserved by value semantics); Via provenance is stripped (it names
	// callee-local stores). A missing key means provably unrelated.
	Rows map[[2]string]Entry

	// ExitInvalid reports that the generic-entry exit state carried
	// outstanding violations (or never reached the exit): the function may
	// leave structures breaking their declarations on ANY entry state, so
	// every call site must taint the caller's validity.
	ExitInvalid bool

	hash string // content-addressed cache key
}

// FuncEffects describes what one function's execution can do to heap state
// reachable from its arguments, computed for every in-program function —
// recursive ones included — as the union over its strongly connected call
// component. Unlike row summaries, effects are recomputed per table (they
// are cheap) and never enter the process-wide cache.
type FuncEffects struct {
	// Writes is the set of record types whose nodes the function or any
	// transitive callee may shape-mutate (pointer stores and frees;
	// out-of-program callees contribute the full reachable closure of their
	// argument types).
	Writes map[string]bool
	// ShapeMut reports whether the function or any transitive callee
	// performs any shape mutation at all. When false the call is a
	// path-matrix no-op: data writes cannot change pointer relations or
	// break a declared abstraction.
	ShapeMut bool
}

// SummaryTable holds the summaries for one program under one shape
// environment, together with the unit's lowered graphs. Each summary is
// published once, into a slot the table allocated before its schedule
// started (see schedule), and read only after it is published; once the
// table is handed out its summaries, effects and graphs are never written
// and are shared read-only by all analysis goroutines. The memo of its
// stripped table (see Stripped) is swapped later, under a lock.
type SummaryTable struct {
	env     *shape.Env
	unit    *loweredUnit
	byFn    map[string]*summarySlot
	effects map[string]*FuncEffects
	reach   map[string]map[string]bool // record type → reachable record types (incl. itself)

	strippedMu sync.Mutex
	stripped   *SummaryTable

	// Computed and Reused count this table's cache misses and hits; the
	// /v1/reanalyze endpoint reports them per request.
	Computed int
	Reused   int
}

// summarySlot is one function's place in a table. Its summary task writes
// sum and reused, then closes done; a task that fails or is cancelled
// closes done with sum nil. Readers wait on done before they read.
type summarySlot struct {
	sum    *FuncSummary
	reused bool // served from the summary cache
	done   chan struct{}
}

// Lookup returns the summary for fn, or nil (recursive or unknown). While
// the table's schedule runs, only a task that awaited fn may look it up.
func (t *SummaryTable) Lookup(fn string) *FuncSummary {
	if t == nil {
		return nil
	}
	if s := t.byFn[fn]; s != nil {
		return s.sum
	}
	return nil
}

// Effects returns fn's effects, or nil for a function outside the program.
func (t *SummaryTable) Effects(fn string) *FuncEffects {
	if t == nil {
		return nil
	}
	return t.effects[fn]
}

// Graph returns fn's lowered graph, or nil for a function outside the
// program. Every table of the unit returns the same graph, and analyses
// only read it.
func (t *SummaryTable) Graph(fn string) *norm.Graph {
	if t == nil {
		return nil
	}
	return t.unit.graphs[fn]
}

// records returns g's record map (recordsOf), shared read-only by every run
// over the table's own graph of that function; a graph lowered elsewhere
// gets a map of its own.
func (t *SummaryTable) records(g *norm.Graph) map[string]string {
	if name := g.Fn.Decl.Name; t.unit.graphs[name] == g {
		return t.unit.records[name]
	}
	return recordsOf(g)
}

// Env returns the shape environment the table's summaries were computed
// under (nil for a nil table).
func (t *SummaryTable) Env() *shape.Env {
	if t == nil {
		return nil
	}
	return t.env
}

// Stripped returns a table of the same unit under the stripped,
// annotation-free environment, which the classic oracle analyzes fn with,
// holding the summary of every function fn transitively calls. The memo
// grows by copy: the summaries it lacks are computed into a new table
// swapped in on success, so no table handed out is ever written. A
// cancelled or failed extension is dropped and the memo kept.
func (t *SummaryTable) Stripped(ctx context.Context, fn string) (*SummaryTable, error) {
	t.strippedMu.Lock()
	defer t.strippedMu.Unlock()
	if t.stripped == nil {
		t.stripped = newTable(t.env.Stripped(), t.unit)
	}
	s, need := t.stripped, map[string]bool{}
	s.lacking(fn, need)
	order := slices.DeleteFunc(slices.Concat(s.unit.sccs...), func(name string) bool { return !need[name] })
	if len(order) == 0 {
		return s, nil
	}
	ext := &SummaryTable{env: s.env, unit: s.unit, byFn: maps.Clone(s.byFn), effects: s.effects, reach: s.reach}
	if err := ext.schedule(ctx, order, 1, nil); err != nil {
		return nil, err
	}
	t.stripped = ext
	return ext, nil
}

// lacking records each of fn's transitive callees in need: true when t
// should hold its summary (in-program, not recursive) but does not.
func (t *SummaryTable) lacking(fn string, need map[string]bool) {
	for _, c := range t.unit.callees[fn] {
		if _, seen := need[c]; !seen {
			need[c] = t.unit.graphs[c] != nil && !t.unit.recursive[c] && t.byFn[c] == nil
			t.lacking(c, need)
		}
	}
}

// reachIntersects reports whether any record type reachable from rec is in
// writes. Unknown record types answer true: never claim disjointness
// without a declaration to back it.
func (t *SummaryTable) reachIntersects(rec string, writes map[string]bool) bool {
	set, ok := t.reach[rec]
	if !ok {
		return true
	}
	for r := range set {
		if writes[r] {
			return true
		}
	}
	return false
}

// reachClosure computes, for every declared record type, the set of record
// types reachable through pointer fields (including itself).
func reachClosure(env *shape.Env) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(env.Types))
	for name := range env.Types {
		set := map[string]bool{}
		var visit func(string)
		visit = func(n string) {
			if set[n] {
				return
			}
			set[n] = true
			if st := env.Type(n); st != nil {
				for _, f := range st.Fields {
					visit(f.Target)
				}
			}
		}
		visit(name)
		out[name] = set
	}
	return out
}

// ---------------------------------------------------------------------------
// Lowered unit

// loweredUnit is the environment-independent work of a table: the call
// graph, its bottom-up order, and each function's lowered graph and
// canonical source. ComputeSummariesCtx builds it once per table build,
// and the table's stripped table shares it.
type loweredUnit struct {
	graphs    map[string]*norm.Graph
	records   map[string]map[string]string // recordsOf each graph
	src       map[string]string            // ast.FuncString, summary-key material
	callees   map[string][]string
	sccs      [][]string
	recursive map[string]bool
}

// lower lowers every function of a checked program and renders its
// canonical source.
func lower(info *types.Info) *loweredUnit {
	u := &loweredUnit{
		graphs:  make(map[string]*norm.Graph, len(info.Funcs)),
		records: make(map[string]map[string]string, len(info.Funcs)),
		src:     make(map[string]string, len(info.Funcs)),
	}
	for name, fi := range info.Funcs {
		g := norm.Build(fi, info.Env)
		u.graphs[name] = g
		u.records[name] = recordsOf(g)
		u.src[name] = ast.FuncString(fi.Decl)
	}
	u.callees = callGraph(info.Prog)
	u.sccs, u.recursive = callOrder(info.Prog, u.callees)
	return u
}

// ---------------------------------------------------------------------------
// Call graph

// callGraph returns each function's distinct in-program callees (sorted) in
// one map, built from the AST so it matches what the normalizer will lower.
func callGraph(prog *ast.Program) map[string][]string {
	out := make(map[string][]string, len(prog.Funcs))
	for _, fd := range prog.Funcs {
		seen := map[string]bool{}
		var callees []string
		ast.WalkExprs(fd.Body, func(e ast.Expr) {
			c, ok := e.(*ast.CallExpr)
			if !ok || seen[c.Name] {
				return
			}
			seen[c.Name] = true
			if prog.FuncByName(c.Name) != nil {
				callees = append(callees, c.Name)
			}
		})
		sort.Strings(callees)
		out[fd.Name] = callees
	}
	return out
}

// callOrder returns the strongly connected call components in bottom-up
// order (callees before callers, via Tarjan's SCC algorithm, which emits
// components in reverse topological order) and the set of names on a call
// cycle.
func callOrder(prog *ast.Program, callees map[string][]string) (sccs [][]string, recursive map[string]bool) {
	recursive = map[string]bool{}
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0

	var connect func(v string)
	connect = func(v string) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range callees[v] {
			if _, seen := index[w]; !seen {
				connect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] != index[v] {
			return
		}
		// v roots an SCC: pop it.
		var scc []string
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			scc = append(scc, w)
			if w == v {
				break
			}
		}
		selfCall := false
		for _, c := range callees[v] {
			if c == v {
				selfCall = true
			}
		}
		if len(scc) > 1 || selfCall {
			for _, w := range scc {
				recursive[w] = true
			}
		}
		sort.Strings(scc) // deterministic within a component
		sccs = append(sccs, scc)
	}
	for _, fd := range prog.Funcs {
		if _, seen := index[fd.Name]; !seen {
			connect(fd.Name)
		}
	}
	return sccs, recursive
}

// ---------------------------------------------------------------------------
// Content-addressed summary cache

var summaryCache struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *FuncSummary]
}

func init() { ResetSummaryCache() }

func summaryCacheGet(key string) (*FuncSummary, bool) {
	summaryCache.mu.Lock()
	defer summaryCache.mu.Unlock()
	return summaryCache.lru.Get(key)
}

// summaryCachePut caches sum under key; a concurrent miss on the same key
// keeps the first summary.
func summaryCachePut(key string, sum *FuncSummary) {
	summaryCache.mu.Lock()
	defer summaryCache.mu.Unlock()
	summaryCache.lru.Add(key, sum)
}

func summaryCacheLen() int {
	summaryCache.mu.Lock()
	defer summaryCache.mu.Unlock()
	return summaryCache.lru.Len()
}

// ResetSummaryCache empties the process-wide summary cache (tests and the
// cold-cache benchmark).
func ResetSummaryCache() {
	summaryCache.mu.Lock()
	defer summaryCache.mu.Unlock()
	summaryCache.lru = lru.New[string, *FuncSummary](summaryCap)
}

// enginePrefix is the run-invariant part of a summary-cache key: engine
// version and environment fingerprint. EngineVersion versions the engine's
// semantics, bounds included.
func enginePrefix(env *shape.Env) string {
	return EngineVersion + "\x1f" + env.Fingerprint() + "\x1f"
}

// summaryKey builds the content-addressed cache key for one function:
// SHA-256 over the engine prefix, the canonical function source, and the
// sorted callee contributions — a callee's own summary hash when it has
// one, its effects fingerprint otherwise. The fingerprint is what an
// unsummarized callee's body contributes to this function's analysis (the
// fallback havoc-or-no-op and the validity taint read only effects), so a
// recursive callee edit that changes its effects re-keys its callers while
// an effect-preserving edit keeps their cached summaries valid. Summaries
// re-key transitively when any summarized callee's body changes.
func summaryKey(env *shape.Env, src string, callees []string, tab *SummaryTable) string {
	var b strings.Builder
	b.WriteString(enginePrefix(env))
	b.WriteString(src)
	for _, c := range callees {
		b.WriteByte('\x1e')
		if s := tab.Lookup(c); s != nil {
			b.WriteString(s.hash)
		} else {
			b.WriteString("eff:" + c + "\x1f" + tab.effects[c].fingerprint())
		}
	}
	return fmt.Sprintf("sha256:%x", sha256.Sum256([]byte(b.String())))
}

// fingerprint renders the effects canonically for key material.
func (e *FuncEffects) fingerprint() string {
	if e == nil {
		return "?"
	}
	recs := make([]string, 0, len(e.Writes))
	for r := range e.Writes {
		recs = append(recs, r)
	}
	sort.Strings(recs)
	return fmt.Sprintf("%t|%s", e.ShapeMut, strings.Join(recs, ","))
}

// ---------------------------------------------------------------------------
// Summary computation

// ComputeSummaries is ComputeSummariesCtx with a background context.
func ComputeSummaries(info *types.Info, env *shape.Env) *SummaryTable {
	tab, err := ComputeSummariesCtx(context.Background(), info, env)
	if err != nil {
		// Background contexts never expire; this is unreachable.
		panic("pathmatrix: " + err.Error())
	}
	return tab
}

// ComputeSummariesCtx builds the summary table for a checked program:
// functions in bottom-up call order, recursive cycles skipped, every
// summary served from the process-wide content-addressed cache when its
// key — SHA-256(canonical body, callee summary hashes, engine version,
// environment fingerprint) — has been computed before, by any run
// of any program. It runs the schedule AnalyzeProgramCtx runs, with no
// analysis tasks, on the calling goroutine. It lowers every function once,
// under a "normalize" span just before the "summaries" one; the table
// keeps the graphs (Graph).
func ComputeSummariesCtx(ctx context.Context, info *types.Info, env *shape.Env) (*SummaryTable, error) {
	tab := newTable(env, lowerCtx(ctx, info))
	if err := tab.schedule(ctx, slices.Concat(tab.unit.sccs...), 1, nil); err != nil {
		return nil, err
	}
	return tab, nil
}

// lowerCtx is lower under a "normalize" span.
func lowerCtx(ctx context.Context, info *types.Info) *loweredUnit {
	_, span := obs.Start(ctx, "normalize")
	u := lower(info)
	span.SetAttr("functions", len(u.graphs))
	span.End()
	return u
}

// newTable returns the table of u under env: every effect, no summary yet.
func newTable(env *shape.Env, u *loweredUnit) *SummaryTable {
	tab := &SummaryTable{
		env:     env,
		unit:    u,
		byFn:    map[string]*summarySlot{},
		effects: map[string]*FuncEffects{},
		reach:   reachClosure(env),
	}
	for _, scc := range u.sccs {
		tab.computeEffects(scc)
	}
	return tab
}

// schedule adds to tab the summaries of names, given in bottom-up call
// order. It runs one par.Each on at most workers goroutines over a task
// list that holds, for each name in turn:
//   - a summary task, when the function is in the program and not
//     recursive; its slot is allocated before the schedule starts;
//   - an analysis task calling analyze with the name's index, when
//     analyze is non-nil.
//
// Every task first awaits its direct callees' summaries. Their tasks come
// earlier in the list: callers follow their callees, and a callee on a
// cycle with the function has no summary task. par.Each hands indices out
// in increasing order, so an awaited task has started, or was skipped
// because the schedule is stopping. A task that fails or panics cancels
// the schedule's context before it closes its slot, which wakes every
// waiter. So no schedule deadlocks, whatever the worker count.
//
// The summary tasks run under a "summaries" span, which the last of them
// ends. The span and the engine sums get the counts of cache misses and
// hits even when the schedule fails or a task panics.
func (tab *SummaryTable) schedule(ctx context.Context, names []string, workers int, analyze func(ctx context.Context, i int) error) error {
	type task struct {
		i    int          // index in names
		slot *summarySlot // nil for an analysis task
	}
	u := tab.unit
	var tasks []task
	var pending atomic.Int64 // summary tasks not yet ended
	for i, name := range names {
		if u.graphs[name] != nil && !u.recursive[name] {
			slot := &summarySlot{done: make(chan struct{})}
			tab.byFn[name] = slot
			tasks = append(tasks, task{i, slot})
			pending.Add(1)
		}
		if analyze != nil {
			tasks = append(tasks, task{i: i})
		}
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, span := obs.Start(sctx, "summaries")
	endSummaries := sync.OnceFunc(func() {
		failed := false
		for _, t := range tasks {
			switch {
			case t.slot == nil:
			case t.slot.sum == nil:
				failed = true
			case t.slot.reused:
				tab.Reused++
			default:
				tab.Computed++
			}
		}
		record(Stats{SummaryComputed: uint64(tab.Computed), SummaryReused: uint64(tab.Reused)})
		if span != nil {
			if failed {
				span.SetAttr("cancelled", true)
			} else {
				span.SetAttr("functions", len(names))
				span.SetAttr("computed", tab.Computed)
				span.SetAttr("reused", tab.Reused)
			}
			span.End()
		}
	})
	defer endSummaries()
	err := par.Each(ctx, len(tasks), workers, func(k int) error {
		t := tasks[k]
		ok := false
		defer func() {
			if !ok {
				cancel() // the task failed or panicked: wake every waiter
			}
			if t.slot != nil {
				close(t.slot.done)
				if pending.Add(-1) == 0 {
					endSummaries()
				}
			}
		}()
		err := tab.await(sctx, names[t.i])
		if err == nil {
			if t.slot != nil {
				err = tab.summarizeOne(sctx, names[t.i], t.slot)
			} else {
				err = analyze(sctx, t.i)
			}
		}
		ok = err == nil
		return err
	})
	return err
}

// await waits until the summaries of fn's direct callees that have a slot
// in tab are published. It returns ctx's error when ctx is done first or a
// callee's task failed, which cancels ctx before it closes its slot.
func (tab *SummaryTable) await(ctx context.Context, fn string) error {
	for _, c := range tab.unit.callees[fn] {
		s := tab.byFn[c]
		if s == nil {
			continue
		}
		select {
		case <-s.done:
			if s.sum != nil {
				continue
			}
		case <-ctx.Done():
		}
		return ctx.Err()
	}
	return nil
}

// summarizeOne is name's summary task: it serves the summary from the
// process-wide cache or computes and caches it, and publishes it in slot.
// Keys are unique within a table, as function names are, so no two tasks
// of one schedule share a key.
func (tab *SummaryTable) summarizeOne(ctx context.Context, name string, slot *summarySlot) error {
	u := tab.unit
	key := summaryKey(tab.env, u.src[name], u.callees[name], tab)
	if sum, ok := summaryCacheGet(key); ok {
		slot.sum, slot.reused = sum, true
		return nil
	}
	sum, err := tab.computeSummary(ctx, u.graphs[name])
	if err != nil {
		return err
	}
	sum.hash = key
	summaryCachePut(key, sum)
	slot.sum = sum
	return nil
}

// computeSummary runs the shadow-formal fixpoint for one function and
// extracts the summary. Callee summaries already in tab (bottom-up order)
// make inner call sites compositional too.
func (tab *SummaryTable) computeSummary(ctx context.Context, g *norm.Graph) (*FuncSummary, error) {
	fi := g.Fn
	res, err := analyzeFunc(ctx, g, tab.env, tab, summaryInit(g))
	if err != nil {
		return nil, err
	}

	sum := &FuncSummary{Fn: fi.Decl.Name, Rows: map[[2]string]Entry{}}
	for pos, p := range fi.Decl.Params {
		if !p.Pointer {
			continue
		}
		sum.Formals = append(sum.Formals, p.Name)
		sum.FormalPos = append(sum.FormalPos, pos)
		sum.FormalRecord = append(sum.FormalRecord, p.TypeName)
	}
	// Exit rows between the entry-value shadows. An invalid exit state
	// (outstanding violations, or an exit the function never reaches) may
	// be missing derived relations, so every row degrades to include Top —
	// the havoc-equivalent unknown — and the call transfer must taint every
	// call site's validity (ExitInvalid).
	exit := res.Before[g.Exit.ID]
	valid := exit != nil && exit.Valid()
	sum.ExitInvalid = !valid
	for i, p := range sum.Formals {
		for j, q := range sum.Formals {
			if i == j {
				continue
			}
			var e Entry
			if exit != nil {
				for _, r := range exit.Entry(p+Shadow, q+Shadow) {
					r.Via = Via{} // callee-local provenance
					e = e.add(r)
				}
			}
			if !valid {
				e = e.add(Rel{Kind: RelTop})
			}
			if e != nil {
				sum.Rows[[2]string{p, q}] = e
			}
		}
	}
	return sum, nil
}

// summaryInit is the entry state of g's summary run. The variable set is
// extended with a primed shadow per pointer formal, seeded as a certain
// alias of its formal and never assigned, so exit rows between shadows
// relate the formals' ENTRY values.
func summaryInit(g *norm.Graph) *Matrix {
	init := newMatrix(newVarIndex(shadowFormalVars(g)), newEntryTable())
	initParams(init, g)
	seedFormalShadows(init, g)
	return init
}

// computeEffects scans the lowered bodies of one strongly connected call
// component and records the shared effects for every member: pointer stores
// and frees contribute the base's record type; calls outside the component
// contribute their callee's (already computed, bottom-up order) effects;
// calls within the component contribute nothing extra — every write a
// recursive descent performs happens in some member body and is already in
// the union. Calls to functions outside the program contribute the full
// reachable closure of every pointer argument's record type and count as
// shape-mutating.
func (tab *SummaryTable) computeEffects(scc []string) {
	eff := &FuncEffects{Writes: map[string]bool{}}
	inSCC := make(map[string]bool, len(scc))
	for _, name := range scc {
		inSCC[name] = true
	}
	addReach := func(rec string) {
		if set, ok := tab.reach[rec]; ok {
			for r := range set {
				eff.Writes[r] = true
			}
		} else if rec != "" {
			eff.Writes[rec] = true
		}
	}
	for _, name := range scc {
		g := tab.unit.graphs[name]
		if g == nil {
			continue
		}
		for _, n := range g.Nodes {
			if n.Kind != norm.NodeStmt {
				continue
			}
			s := n.Stmt
			switch s.Op {
			case norm.StorePtr, norm.Free:
				eff.ShapeMut = true
				if rec := g.VarTypes[s.Base].Record; rec != "" {
					eff.Writes[rec] = true
				}
			case norm.Call:
				if inSCC[s.Callee] {
					continue
				}
				if ce := tab.effects[s.Callee]; ce != nil {
					if ce.ShapeMut {
						eff.ShapeMut = true
					}
					for r := range ce.Writes {
						eff.Writes[r] = true
					}
				} else if len(s.Args) > 0 {
					eff.ShapeMut = true
					for _, a := range s.Args {
						addReach(g.VarTypes[a].Record)
					}
				}
			}
		}
	}
	for _, name := range scc {
		tab.effects[name] = eff
	}
}

package pathmatrix

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/shape"
	"repro/internal/source/types"
)

// Result holds the analysis output for one function: a matrix before and
// after every CFG node, keyed by node ID.
type Result struct {
	Graph  *norm.Graph
	Env    *shape.Env
	Before []*Matrix
	After  []*Matrix // per node; for branches this is the pre-refinement state
	// Summaries is the interprocedural summary table the run transferred
	// calls with, nil for havoc-only runs. IterationMatrix reuses it so the
	// primed-variable view stays consistent with the per-node matrices.
	Summaries *SummaryTable

	iters sync.Map // *norm.Loop -> *iterMemo
}

// maxIterations bounds the fixed-point computation; the bounded domain
// converges long before this, but a safety valve beats an infinite loop.
const maxIterations = 100000

// nodeVisitBudget bounds how often one CFG node is reprocessed before its
// state is forcibly widened to the fully conservative matrix. Pathological
// programs (e.g. stores building self-loops, which churn certainty flags
// and via tags) can make the otherwise-finite domain oscillate; widening
// restores guaranteed termination at the cost of precision, soundly: the
// widened matrix admits every alias and carries a standing violation, so
// no transformation-enabling fact survives.
const nodeVisitBudget = 64

// widened is the terminal conservative state of the run that owns ix and
// tab: every distinct pair of variables with the same record (rec, from
// recordsOf) may alias, and a standing (unclearable) violation keeps
// MayAlias fully conservative. Top relations are mirrored, so one pass over
// the unordered pairs covers every cell.
func widened(ix *varIndex, rec map[string]string, tab *entryTable) *Matrix {
	m := newMatrix(ix, tab)
	for i, p := range ix.names {
		rp, ok := rec[p]
		if !ok {
			continue
		}
		for _, q := range ix.names[i+1:] {
			if rq, ok := rec[q]; ok && rp == rq {
				m.addRel(p, q, Rel{Kind: RelTop})
			}
		}
	}
	m.addViolation(Violation{Prop: "widened"})
	return m
}

// Analyze runs general path matrix analysis over a normalized CFG. The env
// is the ADDS shape environment; pass env.Stripped() to model the classic,
// annotation-free analysis.
func Analyze(g *norm.Graph, env *shape.Env) *Result {
	res, err := AnalyzeCtxWith(context.Background(), g, env, nil)
	if err != nil {
		// Background contexts never expire; this is unreachable.
		panic("pathmatrix: " + err.Error())
	}
	return res
}

// AnalyzeCtxWith is Analyze with cancellation and an interprocedural
// summary table. The fixed-point loop polls ctx periodically and abandons
// the run with ctx's error when it is done; the partial result is
// discarded, as analysis state is not resumable. Call statements to
// summarized callees apply the callee's entry-shape → exit-effect summary
// instead of the all-args havoc. A nil table is the plain havoc analysis.
func AnalyzeCtxWith(ctx context.Context, g *norm.Graph, env *shape.Env, tab *SummaryTable) (*Result, error) {
	init := newMatrix(newVarIndex(g.PointerVars()), newEntryTable())
	initParams(init, g)
	return analyzeFunc(ctx, g, env, tab, init)
}

// analyzeFunc runs the function-level fixpoint from g's entry, whose state
// is init, and records the run's counts in the engine sums and the fixpoint
// span. It serves AnalyzeCtxWith and the summary runs, which differ only in
// init.
func analyzeFunc(ctx context.Context, g *norm.Graph, env *shape.Env, tab *SummaryTable, init *Matrix) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The fixpoint span covers the whole per-statement worklist run. When no
	// tracer rides the context this is one nil check; when one does, the
	// run's own counts land as span attributes so a slow analysis can name
	// its cost.
	_, span := obs.Start(ctx, "fixpoint")
	f := newFixpoint(g, env, tab)
	if err := f.solve(ctx, g.Entry, init); err != nil {
		span.SetAttr("cancelled", true)
		span.End()
		return nil, err
	}
	st := f.stats
	st.Analyses = 1
	st.SummaryApplied, st.SummaryFallbacks = f.trans.applied, f.trans.fallbacks
	record(st)
	if span != nil {
		span.SetAttr("fn", g.Fn.Decl.Name)
		span.SetAttr("nodes", len(g.Nodes))
		span.SetAttr("iterations", int(st.Iterations))
		span.SetAttr("widenings", int(st.Widenings))
		span.SetAttr("matrixClones", int(st.Clones))
		span.SetAttr("sharedRows", int(st.SharedRows))
		hits := f.tab.memo.hits
		span.SetAttr("entries", f.tab.held())
		span.SetAttr("joinMemoHits", int(hits[memoJoin]))
		span.SetAttr("addMemoHits", int(hits[memoAdd]))
		span.SetAttr("edgeMemoHits", int(hits[memoEdge]))
		span.SetAttr("staleMemoHits", int(hits[memoStale]))
		if tab != nil {
			span.SetAttr("summaryApplied", int(st.SummaryApplied))
			span.SetAttr("summaryFallbacks", int(st.SummaryFallbacks))
		}
		span.End()
	}
	return &Result{Graph: g, Env: env, Before: f.before, After: f.after, Summaries: tab}, nil
}

// fixpoint is one norm.Solve run of the path-matrix dataflow over g: the
// function analysis and the summary runs from the entry over the whole
// graph, and IterationMatrix from a loop's body entry over its body.
type fixpoint struct {
	g     *norm.Graph
	trans transferer
	// body, when non-nil, limits the run to those nodes: edges leaving it
	// are dropped. States on edges into stop go to onStop, in the order
	// they are produced, instead of being propagated.
	body   map[*norm.Node]bool
	stop   *norm.Node
	onStop func(*Matrix)

	before, after []*Matrix // per node ID; nil where never reached
	// in is the seed's in-state. tab, its entry table, is the run's:
	// written only by this run and frozen when it ends.
	in  *Matrix
	tab *entryTable
	// visits counts the visits per node ID; wide is the widened state the
	// nodes past nodeVisitBudget share.
	visits []int
	wide   *Matrix
	// stats counts the run's iterations, widenings, the clones the solver
	// makes and the join cells it shares.
	stats Stats
}

// newFixpoint prepares a run over g. A non-nil summary table enables
// summary-based call transfer and lends the run g's record map.
func newFixpoint(g *norm.Graph, env *shape.Env, tab *SummaryTable) *fixpoint {
	f := &fixpoint{g: g, trans: transferer{env: env}}
	if tab != nil {
		f.trans.summaries = tab
		f.trans.varRecord = tab.records(g)
	}
	return f
}

// solve propagates states from seed, whose in-state is in (used as is, and
// never joined with its predecessors), until no edge state changes. in's
// entry table, which must not be frozen, becomes the run's. When solve
// returns, the table and the recorded matrices are frozen.
func (f *fixpoint) solve(ctx context.Context, seed *norm.Node, in *Matrix) error {
	f.in, f.tab = in, in.tab
	defer f.freeze()
	n := len(f.g.Nodes)
	states := make([]*Matrix, 2*n)
	f.before, f.after = states[:n:n], states[n:]
	f.visits = make([]int, n)
	steps, err := norm.Solve[*Matrix](ctx, f.g, seed, maxIterations, f)
	f.stats.Iterations = uint64(steps)
	if errors.Is(err, norm.ErrStepLimit) {
		panic("pathmatrix: fixed point not reached")
	}
	return err
}

// Visit implements norm.Flow: it records n's before and after matrices and
// sends the after matrix, refined per edge at a branch, along n's edges.
// Past nodeVisitBudget visits the node's state is the widened matrix.
// Matrices are shared wherever nothing writes them: a node with one input
// takes that state as its before matrix, and a node whose transfer has no
// pointer effect sends its before matrix on as its after matrix. Only a
// statement's transfer writes, into a clone.
func (f *fixpoint) Visit(n *norm.Node, in, out []*Matrix) {
	var before, after *Matrix
	if f.visits[n.ID]++; f.visits[n.ID] > nodeVisitBudget {
		if f.visits[n.ID] == nodeVisitBudget+1 {
			f.stats.Widenings++
		}
		if f.wide == nil {
			rec := f.trans.varRecord
			if rec == nil {
				rec = recordsOf(f.g)
			}
			f.wide = widened(f.in.ix, rec, f.tab)
		}
		before, after = f.wide, f.wide
	} else {
		before = f.inState(in)
		after = before
		if pointerEffect(n) {
			after = before.Clone()
			f.stats.Clones++
			f.trans.apply(after, n.Stmt)
		}
	}
	f.before[n.ID], f.after[n.ID] = before, after
	for si, succ := range n.Succs {
		st := after
		if n.Kind == norm.NodeBranch && f.visits[n.ID] <= nodeVisitBudget {
			if st = refine(after, n.Cond, si == 0); st != after {
				f.stats.Clones++
			}
		}
		switch {
		case succ == f.stop:
			f.onStop(st)
		case f.body == nil || f.body[succ]:
			out[si] = st
		}
	}
}

// pointerEffect reports whether n's transfer may change a matrix: whether n
// is a statement other than a scalar access or computation.
func pointerEffect(n *norm.Node) bool {
	if n.Kind != norm.NodeStmt {
		return false
	}
	switch n.Stmt.Op {
	case norm.ScalarRead, norm.ScalarWrite, norm.ScalarOp:
		return false
	}
	return true
}

// inState joins the states on a node's incoming edges; the seed has none
// and starts from the run's in-state. One incoming state is used as is, and
// join builds a fresh matrix, so neither is cloned.
func (f *fixpoint) inState(in []*Matrix) *Matrix {
	if len(in) == 0 {
		return f.in
	}
	acc := in[0]
	for _, st := range in[1:] {
		var shared int
		acc, shared = join(acc, st)
		f.stats.SharedRows += uint64(shared)
	}
	return acc
}

// Equal implements norm.Flow.
func (f *fixpoint) Equal(a, b *Matrix) bool { return a.equal(b) }

// freeze ends the run's writes: its table and the matrices it recorded are
// read concurrently from here on.
func (f *fixpoint) freeze() {
	f.tab.frozen = true
	for i, m := range f.before {
		if m != nil {
			m.freeze()
		}
		if m := f.after[i]; m != nil {
			m.freeze()
		}
	}
}

// shadowFormalVars extends the function's pointer variables with one primed
// shadow per pointer formal, for the summary-computation runs.
func shadowFormalVars(g *norm.Graph) []string {
	vars := append([]string(nil), g.PointerVars()...)
	for _, p := range g.Fn.Decl.Params {
		if p.Pointer {
			vars = append(vars, p.Name+Shadow)
		}
	}
	return vars
}

// recordsOf maps every pointer variable of the graph — and its potential
// shadow — to its record type name, for the summary call transfer's
// type-taint test and for widening. A table builds it once per lowered
// graph (SummaryTable.records); runs only read it.
func recordsOf(g *norm.Graph) map[string]string {
	out := make(map[string]string, 2*len(g.VarTypes))
	for v, t := range g.VarTypes {
		if t.Kind != types.KindPointer {
			continue
		}
		out[v] = t.Record
		out[v+Shadow] = t.Record
	}
	return out
}

// seedFormalShadows records each pointer formal's shadow as a certain alias
// of the formal at entry, generically related (like initParams) to every
// other same-record formal and that formal's shadow. The shadows are never
// assigned, so at exit they still denote the formals' entry values.
func seedFormalShadows(m *Matrix, g *norm.Graph) {
	params := g.Fn.Decl.Params
	for i, a := range params {
		if !a.Pointer {
			continue
		}
		sh := a.Name + Shadow
		m.addRel(sh, a.Name, Rel{Kind: RelAlias, Certain: true})
		for j, b := range params {
			if j == i || !b.Pointer || b.TypeName != a.TypeName {
				continue
			}
			m.addRel(sh, b.Name, Rel{Kind: RelTop})
			if j > i {
				m.addRel(sh, b.Name+Shadow, Rel{Kind: RelTop})
			}
		}
	}
}

// initParams seeds the entry matrix: pointer parameters of the same record
// type may alias or be connected in unknown ways (the callee knows nothing
// about its inputs beyond their declarations).
func initParams(m *Matrix, g *norm.Graph) {
	params := g.Fn.Decl.Params
	for i, a := range params {
		if !a.Pointer {
			continue
		}
		for _, b := range params[i+1:] {
			if b.Pointer && a.TypeName == b.TypeName {
				m.addRel(a.Name, b.Name, Rel{Kind: RelTop})
			}
		}
	}
}

// refine applies a branch condition to the matrix along one edge. It
// returns a clone exactly when the result differs from m.
func refine(m *Matrix, c *norm.Cond, taken bool) *Matrix {
	kind := c.Kind
	if !taken {
		switch kind {
		case norm.CondNilEQ:
			kind = norm.CondNilNE
		case norm.CondNilNE:
			kind = norm.CondNilEQ
		case norm.CondPtrEQ:
			kind = norm.CondPtrNE
		case norm.CondPtrNE:
			kind = norm.CondPtrEQ
		default:
			return m
		}
	}
	switch kind {
	case norm.CondNilEQ:
		// Var is NULL here: it aliases nothing and reaches nothing.
		out := m.Clone()
		out.kill(c.Var)
		return out
	case norm.CondPtrEQ:
		out := m.Clone()
		// The two pointers are equal: each inherits the other's relations.
		inherit := func(from, to string) {
			f, t := out.index(from), out.index(to)
			for _, x := range out.appendRelated(nil, f) {
				if x == t {
					continue
				}
				y := out.ix.names[x]
				for _, r := range out.at(f, x) {
					out.addRel(to, y, r)
				}
				for _, r := range out.at(x, f) {
					out.addRel(y, to, r)
				}
			}
		}
		inherit(c.Var, c.Var2)
		inherit(c.Var2, c.Var)
		out.addRel(c.Var, c.Var2, Rel{Kind: RelAlias, Certain: true})
		return out
	case norm.CondPtrNE:
		// Provably distinct: drop alias relations, keep paths.
		out := m.Clone()
		for _, pair := range [][2]string{{c.Var, c.Var2}, {c.Var2, c.Var}} {
			e := out.Entry(pair[0], pair[1])
			if e == nil {
				continue
			}
			ne := Entry{}
			for _, r := range e {
				if r.Kind == RelAlias {
					continue
				}
				ne = ne.add(r)
			}
			out.set(pair[0], pair[1], ne)
		}
		return out
	}
	return m
}

// AtEntry returns the matrix at function entry.
func (r *Result) AtEntry() *Matrix { return r.Before[r.Graph.Entry.ID] }

// BeforeNode and AfterNode return the matrices around a node; they return an
// empty matrix for unreachable nodes.
func (r *Result) BeforeNode(n *norm.Node) *Matrix {
	if m := r.Before[n.ID]; m != nil {
		return m
	}
	return NewMatrix(r.Graph.PointerVars())
}

// AfterNode returns the matrix after a node executes.
func (r *Result) AfterNode(n *norm.Node) *Matrix {
	if m := r.After[n.ID]; m != nil {
		return m
	}
	return NewMatrix(r.Graph.PointerVars())
}

// LoopHead returns the fixed-point matrix at a loop's head (inside the loop,
// after the condition has been found true).
func (r *Result) LoopHead(l *norm.Loop) *Matrix {
	// Body entry is Succs[0] of the branch.
	if len(l.Branch.Succs) > 0 {
		return r.BeforeNode(l.Branch.Succs[0])
	}
	return r.BeforeNode(l.Head)
}

// Shadow is the suffix given to previous-iteration variables in the
// cross-iteration matrix (the paper's primed variables, e.g. p').
const Shadow = "'"

// IterationMatrix computes the paper's primed-variable view for a loop: the
// matrix relating each pointer variable's value at the start of iteration i
// (suffixed with Shadow) to every variable's value after the body has
// executed once (unsuffixed). PM(p', p) = next means each iteration advances
// p by exactly one next link. It is computed once per loop; every call,
// from any goroutine, returns the same read-only matrix.
func (r *Result) IterationMatrix(l *norm.Loop) *Matrix {
	v, ok := r.iters.Load(l)
	if !ok {
		v, _ = r.iters.LoadOrStore(l, &iterMemo{})
	}
	im := v.(*iterMemo)
	im.once.Do(func() { im.m = r.iterationMatrix(l) })
	return im.m
}

// iterMemo holds one loop's iteration matrix.
type iterMemo struct {
	once sync.Once
	m    *Matrix
}

func (r *Result) iterationMatrix(l *norm.Loop) *Matrix {
	base := r.LoopHead(l)

	// Extend the variable set with shadows and copy all relations, making
	// shadow x' an exact alias of x.
	names := base.Vars()
	vars := append([]string(nil), names...)
	for _, v := range names {
		vars = append(vars, v+Shadow)
	}
	m := base.onIndex(newVarIndex(vars))
	m.viols = base.viols
	for _, v := range names {
		sh := v + Shadow
		m.copyRelations(sh, v)
		m.addRel(sh, v, Rel{Kind: RelAlias, Certain: true})
	}

	// Run one symbolic body execution as a localized dataflow over the body
	// subgraph: inner branches join properly, inner loops reach their own
	// fixed points. Body nodes only write unshadowed variables, so shadows
	// keep their iteration-start values. States flowing along back edges
	// into the loop head are joined to form the result. The run gets its
	// own transferer and entry table (both carry per-goroutine scratch
	// state, and IterationMatrix may be called concurrently on one Result)
	// under the function run's summary table, so calls in the body transfer
	// the same way. It records nothing.
	f := newFixpoint(r.Graph, r.Env, r.Summaries)
	f.body, f.stop = l.Body, l.Head
	var result *Matrix
	f.onStop = func(out *Matrix) {
		// Back edge: this state describes the end of the iteration.
		if result == nil {
			result = out.Clone()
		} else {
			result, _ = join(result, out)
		}
	}
	// IterationMatrix's signature carries no context, and an uncancellable
	// one never ends the run, so solve cannot fail.
	_ = f.solve(context.TODO(), l.Branch.Succs[0], m)
	if result == nil {
		return m // body never completes (always returns/exits)
	}
	result.freeze()
	return result
}

// FuncResult bundles per-function results for a whole program.
type FuncResult struct {
	Info   *types.FuncInfo
	Graph  *norm.Graph
	Result *Result
}

// AnalyzeProgramCtx analyzes every function of a checked program on at most
// workers goroutines (par.Each: workers <= 0 means GOMAXPROCS). It lowers
// every function once and runs the summary and function fixpoints as one
// dependency-ordered schedule (see SummaryTable.schedule): a function run
// needs only its direct callees' summaries, never its own, so it overlaps
// the summary runs of the functions it does not call. Every function run
// transfers calls through the same table, and each summary is the same
// whichever worker computed it, so the results are independent of worker
// count and scheduling. Cancelling ctx stops the remaining work and
// returns ctx's error.
func AnalyzeProgramCtx(ctx context.Context, info *types.Info, env *shape.Env, workers int) (map[string]*FuncResult, error) {
	tab := newTable(env, lowerCtx(ctx, info))
	names := slices.Concat(tab.unit.sccs...)
	results := make([]*FuncResult, len(names))
	err := tab.schedule(ctx, names, workers, func(ctx context.Context, i int) error {
		name := names[i]
		fctx, span := obs.Start(ctx, "analyze")
		span.SetAttr("fn", name)
		g := tab.Graph(name)
		r, err := AnalyzeCtxWith(fctx, g, env, tab)
		span.End()
		if err != nil {
			return err
		}
		results[i] = &FuncResult{Info: info.Funcs[name], Graph: g, Result: r}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*FuncResult, len(names))
	for i, name := range names {
		out[name] = results[i]
	}
	return out, nil
}

// String renders a short summary of the result (entry and exit matrices).
func (r *Result) String() string {
	return fmt.Sprintf("entry:\n%s\nexit:\n%s",
		r.BeforeNode(r.Graph.Entry), r.BeforeNode(r.Graph.Exit))
}

package pathmatrix

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

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

// ctxCheckMask controls how often the fixed-point loop polls the context:
// every (ctxCheckMask+1) iterations. Must be a power of two minus one.
const ctxCheckMask = 63

// nodeVisitBudget bounds how often one CFG node is reprocessed before its
// state is forcibly widened to the fully conservative matrix. Pathological
// programs (e.g. stores building self-loops, which churn certainty flags
// and via tags) can make the otherwise-finite domain oscillate; widening
// restores guaranteed termination at the cost of precision, soundly: the
// widened matrix admits every alias and carries a standing violation, so
// no transformation-enabling fact survives.
const nodeVisitBudget = 64

// widened is the terminal conservative state of a run over vars: every
// distinct pair of variables with the same record (rec, from recordsOf) may
// alias, and a standing (unclearable) violation keeps MayAlias fully
// conservative. Top relations are mirrored, so one pass over the unordered
// pairs covers every cell.
func widened(vars []string, rec map[string]string) *Matrix {
	m := NewMatrix(vars)
	for i, p := range vars {
		rp, ok := rec[p]
		if !ok {
			continue
		}
		for _, q := range vars[i+1:] {
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
	vars := g.PointerVars() // a fresh slice the run's matrices share
	init := newMatrix(vars, newVarIndex(vars))
	initParams(init, g)
	return analyzeFunc(ctx, g, env, tab, init)
}

// analyzeFunc runs the function-level fixpoint from g's entry, whose state
// is init, and records the run in engineStats and the fixpoint span. It
// serves AnalyzeCtxWith and the summary runs, which differ only in init.
func analyzeFunc(ctx context.Context, g *norm.Graph, env *shape.Env, tab *SummaryTable, init *Matrix) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The fixpoint span covers the whole per-statement worklist run. When no
	// tracer rides the context this is one nil check; when one does, the
	// engine stats land as span attributes so a slow analysis can name its
	// cost (clone counts are process-wide deltas: exact when serial,
	// indicative under concurrent analyses).
	_, span := obs.Start(ctx, "fixpoint")
	clones0 := engineStats.clones.Load()
	sharedRows0 := engineStats.sharedRows.Load()
	summaryApplied0 := engineStats.summaryApplied.Load()
	summaryFallbacks0 := engineStats.summaryFallbacks.Load()

	f := newFixpoint(g, env, tab)
	if err := f.solve(ctx, g.Entry, init); err != nil {
		span.SetAttr("cancelled", true)
		span.End()
		return nil, err
	}
	engineStats.analyses.Add(1)
	engineStats.iterations.Add(uint64(f.iterations))
	engineStats.widenings.Add(uint64(f.widenings))
	if span != nil {
		span.SetAttr("fn", g.Fn.Decl.Name)
		span.SetAttr("nodes", len(g.Nodes))
		span.SetAttr("iterations", f.iterations)
		span.SetAttr("widenings", f.widenings)
		span.SetAttr("matrixClones", engineStats.clones.Load()-clones0)
		span.SetAttr("sharedRows", engineStats.sharedRows.Load()-sharedRows0)
		if tab != nil {
			span.SetAttr("summaryApplied", engineStats.summaryApplied.Load()-summaryApplied0)
			span.SetAttr("summaryFallbacks", engineStats.summaryFallbacks.Load()-summaryFallbacks0)
		}
		span.End()
	}
	return &Result{Graph: g, Env: env, Before: f.before, After: f.after, Summaries: tab}, nil
}

// fixpoint is one FIFO worklist run of the path-matrix dataflow over g: the
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

	before, after         []*Matrix // per node ID; nil where never reached
	iterations, widenings int
}

// newFixpoint prepares a run over g. A non-nil summary table enables
// summary-based call transfer.
func newFixpoint(g *norm.Graph, env *shape.Env, tab *SummaryTable) *fixpoint {
	f := &fixpoint{g: g, trans: transferer{env: env}}
	if tab != nil {
		f.trans.summaries = tab
		f.trans.varRecord = recordsOf(g)
	}
	return f
}

// solve propagates states from seed, whose in-state is in (used as is, and
// never joined with its predecessors), until no edge state changes.
func (f *fixpoint) solve(ctx context.Context, seed *norm.Node, in *Matrix) error {
	g := f.g
	f.before = make([]*Matrix, len(g.Nodes))
	f.after = make([]*Matrix, len(g.Nodes))

	// Edge states: for each node, the state flowing out along each
	// successor edge (branches refine differently per edge). The per-node
	// slices are carved from one backing array.
	totalSuccs := 0
	for _, n := range g.Nodes {
		totalSuccs += len(n.Succs)
	}
	edgeOut := make([][]*Matrix, len(g.Nodes))
	edgeBuf := make([]*Matrix, totalSuccs)
	for i, n := range g.Nodes {
		edgeOut[i], edgeBuf = edgeBuf[:len(n.Succs):len(n.Succs)], edgeBuf[len(n.Succs):]
	}

	// inState joins the states on n's incoming edges. A node is queued only
	// after one of them has been set, so the join is never empty.
	inState := func(n *norm.Node) *Matrix {
		if n == seed {
			return in
		}
		var acc *Matrix
		for _, p := range n.Preds {
			for si, s := range p.Succs {
				if s != n {
					continue
				}
				st := edgeOut[p.ID][si]
				if st == nil {
					continue
				}
				if acc == nil {
					acc = st.Clone()
				} else {
					acc = Join(acc, st)
				}
			}
		}
		return acc
	}

	// The FIFO worklist is a slice drained by index and compacted in place
	// once the drained prefix dominates, so steady-state processing appends
	// into existing capacity, sized by the nodes the run may visit, instead
	// of reallocating.
	visitable := len(g.Nodes)
	if f.body != nil {
		visitable = len(f.body)
	}
	work := make([]*norm.Node, 1, 4*visitable+64)
	work[0] = seed
	head := 0
	inWork := make([]bool, len(g.Nodes))
	inWork[seed.ID] = true
	visits := make([]int, len(g.Nodes))
	var wide *Matrix
	for head < len(work) {
		if f.iterations++; f.iterations > maxIterations {
			panic("pathmatrix: fixed point not reached")
		}
		if f.iterations&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if head > 32 && head*2 >= len(work) {
			n := copy(work, work[head:])
			work, head = work[:n], 0
		}
		n := work[head]
		head++
		inWork[n.ID] = false

		var before, after *Matrix
		if visits[n.ID]++; visits[n.ID] > nodeVisitBudget {
			if visits[n.ID] == nodeVisitBudget+1 {
				f.widenings++
			}
			if wide == nil {
				wide = widened(in.vars, recordsOf(g))
			}
			before, after = wide, wide
		} else {
			before = inState(n)
			after = before.Clone()
			if n.Kind == norm.NodeStmt {
				f.trans.apply(after, n.Stmt)
			}
		}
		f.before[n.ID] = before
		f.after[n.ID] = after

		for si, succ := range n.Succs {
			out := after
			if n.Kind == norm.NodeBranch && visits[n.ID] <= nodeVisitBudget {
				out = refine(after, n.Cond, si == 0)
			}
			if succ == f.stop {
				f.onStop(out)
				continue
			}
			if f.body != nil && !f.body[succ] {
				continue
			}
			old := edgeOut[n.ID][si]
			if old != nil && old.Equal(out) {
				continue
			}
			edgeOut[n.ID][si] = out
			if !inWork[succ.ID] {
				work = append(work, succ)
				inWork[succ.ID] = true
			}
		}
	}
	return nil
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
// type-taint test.
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

// refine applies a branch condition to the matrix along one edge.
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
		for _, x := range out.relatedVars(c.Var) {
			if x == c.Var2 {
				continue
			}
			for _, r := range out.Entry(c.Var, x) {
				out.addRel(c.Var2, x, r)
			}
			for _, r := range out.Entry(x, c.Var) {
				out.addRel(x, c.Var2, r)
			}
		}
		for _, x := range out.relatedVars(c.Var2) {
			if x == c.Var {
				continue
			}
			for _, r := range out.Entry(c.Var2, x) {
				out.addRel(c.Var, x, r)
			}
			for _, r := range out.Entry(x, c.Var2) {
				out.addRel(x, c.Var, r)
			}
		}
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
	vars := append([]string(nil), base.vars...)
	for _, v := range base.vars {
		vars = append(vars, v+Shadow)
	}
	m := NewMatrix(vars)
	to := make([]int, len(base.ix.names))
	for i, v := range base.ix.names {
		to[i] = m.slot(v)
	}
	for i, row := range base.rows {
		for j, e := range row {
			if e != nil {
				m.setShared(to[i], to[j], e)
			}
		}
	}
	for _, v := range base.Violations() {
		m.addViolation(v)
	}
	for _, v := range base.vars {
		sh := v + Shadow
		m.copyRelations(sh, v)
		m.addRel(sh, v, Rel{Kind: RelAlias, Certain: true})
	}

	// Run one symbolic body execution as a localized dataflow over the body
	// subgraph: inner branches join properly, inner loops reach their own
	// fixed points. Body nodes only write unshadowed variables, so shadows
	// keep their iteration-start values. States flowing along back edges
	// into the loop head are joined to form the result. The run gets its
	// own transferer (which carries per-goroutine scratch state, and
	// IterationMatrix may be called concurrently on one Result) under the
	// function run's summary table, so calls in the body transfer the same
	// way. Its counters stay out of engineStats.
	f := newFixpoint(r.Graph, r.Env, r.Summaries)
	f.body, f.stop = l.Body, l.Head
	var result *Matrix
	f.onStop = func(out *Matrix) {
		// Back edge: this state describes the end of the iteration.
		if result == nil {
			result = out.Clone()
		} else {
			result = Join(result, out)
		}
	}
	// IterationMatrix's signature carries no context, and an uncancellable
	// one never ends the run, so solve cannot fail.
	_ = f.solve(context.TODO(), l.Branch.Succs[0], m)
	if result == nil {
		return m // body never completes (always returns/exits)
	}
	return result
}

// FuncResult bundles per-function results for a whole program.
type FuncResult struct {
	Info   *types.FuncInfo
	Graph  *norm.Graph
	Result *Result
}

// AnalyzeProgramCtx analyzes every function of a checked program with a
// bounded worker pool. workers <= 0 means GOMAXPROCS. Cancelling ctx stops
// the remaining work and returns ctx's error.
func AnalyzeProgramCtx(ctx context.Context, info *types.Info, env *shape.Env, workers int) (map[string]*FuncResult, error) {
	names := make([]string, 0, len(info.Funcs))
	for name := range info.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}

	// The summary table is computed serially up front (bottom-up over the
	// call graph) and then shared read-only by all workers, so the result is
	// independent of worker count and scheduling.
	tab, err := ComputeSummariesCtx(ctx, info, env)
	if err != nil {
		return nil, err
	}

	analyzeOne := func(name string) (*FuncResult, error) {
		fi := info.Funcs[name]
		fctx, span := obs.Start(ctx, "analyze")
		span.SetAttr("fn", name)
		g := norm.Build(fi, info.Env)
		r, err := AnalyzeCtxWith(fctx, g, env, tab)
		span.End()
		if err != nil {
			return nil, err
		}
		return &FuncResult{Info: fi, Graph: g, Result: r}, nil
	}

	// Results are slotted by position in the sorted name list, so the output
	// map is identical regardless of which worker analyzed which function.
	results := make([]*FuncResult, len(names))
	errs := make([]error, workers)
	panics := make([]any, workers)
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(names) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				fr, err := analyzeOne(names[i])
				if err != nil {
					errs[w] = err
					return
				}
				results[i] = fr
			}
		}(w)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p) // surface worker panics on the calling goroutine
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
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

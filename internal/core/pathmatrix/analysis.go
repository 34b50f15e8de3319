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

// widenedIterationMatrix extends the widened matrix with the primed shadow
// variables used by IterationMatrix.
func widenedIterationMatrix(g *norm.Graph) *Matrix {
	m := widenedMatrix(g)
	base := g.PointerVars()
	vars := append([]string(nil), base...)
	for _, v := range base {
		vars = append(vars, v+Shadow)
	}
	out := NewMatrix(vars)
	for _, p := range base {
		tp := g.VarTypes[p]
		for _, q := range base {
			tq := g.VarTypes[q]
			if tp.Kind != types.KindPointer || tq.Kind != types.KindPointer ||
				tp.Record != tq.Record {
				continue
			}
			if p != q {
				out.addRel(p, q, Rel{Kind: RelTop})
			}
			out.addRel(p+Shadow, q, Rel{Kind: RelTop})
			out.addRel(p+Shadow, q+Shadow, Rel{Kind: RelTop})
		}
	}
	for _, v := range m.Violations() {
		out.addViolation(v)
	}
	return out
}

// widenedMatrix is the terminal conservative state for a function: every
// pair of same-record pointers may alias, and a standing (uncleareable)
// violation keeps MayAlias fully conservative.
func widenedMatrix(g *norm.Graph) *Matrix {
	vars := g.PointerVars()
	m := NewMatrix(vars)
	for i, p := range vars {
		tp := g.VarTypes[p]
		for _, q := range vars[i+1:] {
			tq := g.VarTypes[q]
			if tp.Kind == types.KindPointer && tq.Kind == types.KindPointer &&
				tp.Record == tq.Record {
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
	res, err := AnalyzeCtx(context.Background(), g, env)
	if err != nil {
		// Background contexts never expire; this is unreachable.
		panic("pathmatrix: " + err.Error())
	}
	return res
}

// AnalyzeCtx is Analyze with cancellation: the fixed-point loop polls ctx
// periodically and abandons the run with ctx's error when it is done. The
// partial result is discarded — analysis state is not resumable.
func AnalyzeCtx(ctx context.Context, g *norm.Graph, env *shape.Env) (*Result, error) {
	return analyzeFull(ctx, g, env, nil)
}

// AnalyzeCtxWith is AnalyzeCtx with an interprocedural summary table: call
// statements to summarized callees apply the callee's entry-shape →
// exit-effect summary instead of the all-args havoc. A nil table is the
// plain havoc analysis.
func AnalyzeCtxWith(ctx context.Context, g *norm.Graph, env *shape.Env, tab *SummaryTable) (*Result, error) {
	if tab == nil {
		return analyzeFull(ctx, g, env, nil)
	}
	return analyzeFull(ctx, g, env, &analyzeOpts{tab: tab})
}

// analyzeOpts configures one analyzeFull run beyond the public entry points.
type analyzeOpts struct {
	// tab enables summary-based call transfer.
	tab *SummaryTable
	// shadowFormals runs the summary-computation variant: the variable set
	// is extended with a primed shadow per pointer formal, seeded as a
	// certain alias of its formal and never assigned, so exit rows between
	// shadows relate the formals' ENTRY values.
	shadowFormals bool
}

// analyzeFull is the fixed-point engine behind AnalyzeCtx, AnalyzeCtxWith
// and summary computation.
func analyzeFull(ctx context.Context, g *norm.Graph, env *shape.Env, opts *analyzeOpts) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shadowed := opts != nil && opts.shadowFormals
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
	widenings := 0
	res := &Result{
		Graph:  g,
		Env:    env,
		Before: make([]*Matrix, len(g.Nodes)),
		After:  make([]*Matrix, len(g.Nodes)),
	}
	trans := &transferer{env: env}
	if opts != nil && opts.tab != nil {
		res.Summaries = opts.tab
		trans.summaries = opts.tab
		trans.varRecord = recordsOf(g)
	}

	vars := g.PointerVars() // a fresh slice the run's matrices share
	if shadowed {
		vars = shadowFormalVars(g)
	}
	ix := newVarIndex(vars)
	init := newMatrix(vars, ix)
	empty := func() *Matrix { return newMatrix(vars, ix) }
	initParams(init, g)
	if shadowed {
		seedFormalShadows(init, g)
	}

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

	inState := func(n *norm.Node) *Matrix {
		if n == g.Entry {
			return init.Clone()
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
		if acc == nil {
			acc = empty() // unreachable so far
		}
		return acc
	}

	// The FIFO worklist is a slice drained by index and compacted in place
	// once the drained prefix dominates, so steady-state processing appends
	// into existing capacity instead of reallocating.
	work := make([]*norm.Node, 1, 4*len(g.Nodes)+64)
	work[0] = g.Entry
	head := 0
	inWork := make([]bool, len(g.Nodes))
	inWork[g.Entry.ID] = true
	visits := make([]int, len(g.Nodes))
	var widened *Matrix
	iter := 0
	for head < len(work) {
		if iter++; iter > maxIterations {
			panic("pathmatrix: fixed point not reached")
		}
		if iter&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				span.SetAttr("cancelled", true)
				span.End()
				return nil, err
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
				engineStats.widenings.Add(1)
				widenings++
			}
			if widened == nil {
				if shadowed {
					widened = widenedFormalsMatrix(g)
				} else {
					widened = widenedMatrix(g)
				}
			}
			before, after = widened, widened
		} else {
			before = inState(n)
			after = before.Clone()
			if n.Kind == norm.NodeStmt {
				trans.apply(after, n.Stmt)
			}
		}
		res.Before[n.ID] = before
		res.After[n.ID] = after

		for si, succ := range n.Succs {
			out := after
			if n.Kind == norm.NodeBranch && visits[n.ID] <= nodeVisitBudget {
				out = refine(after, n.Cond, si == 0)
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
	engineStats.analyses.Add(1)
	engineStats.iterations.Add(uint64(iter))
	if span != nil {
		span.SetAttr("fn", g.Fn.Decl.Name)
		span.SetAttr("nodes", len(g.Nodes))
		span.SetAttr("iterations", iter)
		span.SetAttr("widenings", widenings)
		span.SetAttr("matrixClones", engineStats.clones.Load()-clones0)
		span.SetAttr("internedPaths", InternerStats())
		span.SetAttr("sharedRows", engineStats.sharedRows.Load()-sharedRows0)
		if trans.summaries != nil {
			span.SetAttr("summaryApplied", engineStats.summaryApplied.Load()-summaryApplied0)
			span.SetAttr("summaryFallbacks", engineStats.summaryFallbacks.Load()-summaryFallbacks0)
		}
		span.End()
	}
	return res, nil
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

// widenedFormalsMatrix is widenedMatrix over the shadow-extended variable
// set of a summary-computation run.
func widenedFormalsMatrix(g *norm.Graph) *Matrix {
	rec := recordsOf(g)
	vars := shadowFormalVars(g)
	m := NewMatrix(vars)
	for i, p := range vars {
		rp, okp := rec[p]
		if !okp {
			continue
		}
		for _, q := range vars[i+1:] {
			if rq, okq := rec[q]; okq && rp == rq {
				m.addRel(p, q, Rel{Kind: RelTop})
			}
		}
	}
	m.addViolation(Violation{Prop: "widened"})
	return m
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
	// into the loop head are joined to form the result.
	bodyEntry := l.Branch.Succs[0]
	// A fresh transferer: it carries per-goroutine scratch state, and
	// IterationMatrix may be called concurrently on one Result. It inherits
	// the run's summary table so calls in the body transfer the same way.
	trans := &transferer{env: r.Env, summaries: r.Summaries}
	if r.Summaries != nil {
		trans.varRecord = recordsOf(r.Graph)
	}
	states := map[int]*Matrix{bodyEntry.ID: m}
	edgeOut := map[int][]*Matrix{}
	work := []*norm.Node{bodyEntry}
	inWork := map[int]bool{bodyEntry.ID: true}
	visits := map[int]int{}
	var widened *Matrix
	var result *Matrix
	iter := 0
	for len(work) > 0 {
		if iter++; iter > maxIterations {
			panic("pathmatrix: iteration matrix fixed point not reached")
		}
		n := work[0]
		work = work[1:]
		inWork[n.ID] = false

		forceWiden := false
		if visits[n.ID]++; visits[n.ID] > nodeVisitBudget {
			forceWiden = true
		}
		before := states[n.ID]
		if n != bodyEntry {
			before = nil
			for _, p := range n.Preds {
				if !l.Body[p] {
					continue
				}
				for si, s := range p.Succs {
					if s != n || edgeOut[p.ID] == nil || edgeOut[p.ID][si] == nil {
						continue
					}
					if before == nil {
						before = edgeOut[p.ID][si].Clone()
					} else {
						before = Join(before, edgeOut[p.ID][si])
					}
				}
			}
			if before == nil {
				continue
			}
		}
		var after *Matrix
		if forceWiden {
			if widened == nil {
				widened = widenedIterationMatrix(r.Graph)
			}
			after = widened
		} else {
			after = before.Clone()
			if n.Kind == norm.NodeStmt {
				trans.apply(after, n.Stmt)
			}
		}
		if edgeOut[n.ID] == nil {
			edgeOut[n.ID] = make([]*Matrix, len(n.Succs))
		}
		for si, succ := range n.Succs {
			out := after
			if n.Kind == norm.NodeBranch && !forceWiden {
				out = refine(after, n.Cond, si == 0)
			}
			if succ == l.Head {
				// Back edge: this state describes the end of the iteration.
				if result == nil {
					result = out.Clone()
				} else {
					result = Join(result, out)
				}
				continue
			}
			if !l.Body[succ] {
				continue // exits the loop (break-like edge)
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

// AnalyzeProgram runs the analysis over every function of a checked program,
// using one worker per available CPU. The result is independent of worker
// count and scheduling (per-function analysis is deterministic).
func AnalyzeProgram(info *types.Info, env *shape.Env) map[string]*FuncResult {
	out, err := AnalyzeProgramCtx(context.Background(), info, env, 0)
	if err != nil {
		// Background contexts never expire; this is unreachable.
		panic("pathmatrix: " + err.Error())
	}
	return out
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
	opts := &analyzeOpts{tab: tab}

	analyzeOne := func(name string) (*FuncResult, error) {
		fi := info.Funcs[name]
		fctx, span := obs.Start(ctx, "analyze")
		span.SetAttr("fn", name)
		g := norm.Build(fi, info.Env)
		r, err := analyzeFull(fctx, g, env, opts)
		span.End()
		if err != nil {
			return nil, err
		}
		return &FuncResult{Info: fi, Graph: g, Result: r}, nil
	}

	out := make(map[string]*FuncResult, len(names))
	if workers <= 1 {
		for _, name := range names {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			fr, err := analyzeOne(name)
			if err != nil {
				return nil, err
			}
			out[name] = fr
		}
		return out, nil
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

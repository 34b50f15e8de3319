// Package smg implements an SMG-lite alias oracle in the style of the
// Predator shape analyser ("Algorithmic Details behind the Predator Shape
// Analyser"): the abstract heap is a symbolic memory graph whose nodes are
// concrete regions plus segment summary nodes, connected by has-value edges
// labelled with record field names.
//
// The domain is deliberately small but keeps the two moves that make SMGs a
// genuinely different abstraction from path matrices and from plain
// k-limiting:
//
//   - Materialization: a strong update through a pointer whose only target
//     is a segment first carves a fresh concrete region out of the segment
//     (the one element the pointer denotes), redirects the pointer to it,
//     and then updates that region strongly. Everything else that could
//     reach the segment may also reach the carved-out element, so the
//     partition of concrete objects among abstract nodes is preserved.
//   - Folding: at control-flow joins, an uninterrupted run — a node whose
//     only incoming reference is a single has-value edge — is absorbed into
//     its predecessor, which becomes a segment (a list segment when the run
//     follows one field, a tree segment when several fields fold into it).
//
// Distinct abstract nodes always denote disjoint sets of concrete objects,
// which is what makes the oracle's answers cheap to read off the final
// graph: MayAlias is points-to-set intersection, MustAlias is "both sets
// are the same singleton concrete region". Loop-carried queries compare
// canonical representatives (a union-find over every fold/materialization
// this analysis performed), since an object's node can be renamed by those
// operations between iterations.
//
// Unknown inputs are per-type external regions closed over their fields —
// the same "assume the worst about callers" boundary the k-limited oracle
// uses — and opaque calls havoc everything reachable from their arguments.
package smg

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/norm"
	"repro/internal/obs"
	"repro/internal/shape"
	"repro/internal/source/types"
)

// nilLabel is the distinguished "points nowhere" value inside points-to
// sets. It is not a node: it never has edges, a kind, or a type.
const nilLabel = "nil"

// allocCap bounds how many distinct regions one allocation site
// materializes before further allocations merge into the site's segment.
const allocCap = 3

// matCap bounds how many regions may be carved out of one segment label,
// and materialization depth is bounded too; both keep the label universe
// (and with it the abstract state space) finite.
const matCap = 3

type nodeKind uint8

const (
	// kindRegion is a concrete region: exactly one object per concrete
	// state, so strong updates and must-alias facts are sound on it.
	kindRegion nodeKind = iota
	// kindSeg is a segment summary node abstracting one or more objects of
	// a folded run (or the overflow of an allocation site).
	kindSeg
	// kindExt is the per-type external region standing for every object
	// the function did not allocate itself.
	kindExt
)

// valSet is a set of abstract values: node labels and possibly nilLabel.
type valSet map[string]bool

func (s valSet) clone() valSet {
	out := make(valSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (s valSet) sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (s valSet) equal(o valSet) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// State is one symbolic memory graph: variable bindings plus has-value
// edges between nodes.
type State struct {
	vars   map[string]valSet            // variable -> values
	edges  map[string]map[string]valSet // node -> field -> values
	kind   map[string]nodeKind          // node -> kind
	typeOf map[string]string            // node -> record type name
}

// NewState returns the empty graph.
func NewState() *State {
	return &State{
		vars:   map[string]valSet{},
		edges:  map[string]map[string]valSet{},
		kind:   map[string]nodeKind{},
		typeOf: map[string]string{},
	}
}

// Clone deep-copies the state.
func (g *State) Clone() *State {
	out := NewState()
	for v, s := range g.vars {
		out.vars[v] = s.clone()
	}
	for n, rows := range g.edges {
		nr := make(map[string]valSet, len(rows))
		for f, s := range rows {
			nr[f] = s.clone()
		}
		out.edges[n] = nr
	}
	for n, k := range g.kind {
		out.kind[n] = k
	}
	for n, t := range g.typeOf {
		out.typeOf[n] = t
	}
	return out
}

func (g *State) addEdge(n, f, t string) {
	rows := g.edges[n]
	if rows == nil {
		rows = map[string]valSet{}
		g.edges[n] = rows
	}
	s := rows[f]
	if s == nil {
		s = valSet{}
		rows[f] = s
	}
	s[t] = true
}

// join unions b into g pointwise; b is only read. Kinds and types of a
// shared label always agree: a label's kind is fixed by the construction
// that names it.
func (g *State) join(b *State) {
	for v, s := range b.vars {
		if g.vars[v] == nil {
			g.vars[v] = valSet{}
		}
		for n := range s {
			g.vars[v][n] = true
		}
	}
	for n, rows := range b.edges {
		for f, s := range rows {
			for t := range s {
				g.addEdge(n, f, t)
			}
		}
	}
	for n, k := range b.kind {
		g.kind[n] = k
	}
	for n, t := range b.typeOf {
		g.typeOf[n] = t
	}
}

// equal compares states for fixed-point detection.
func (g *State) equal(o *State) bool {
	if len(g.vars) != len(o.vars) || len(g.kind) != len(o.kind) ||
		len(g.typeOf) != len(o.typeOf) {
		return false
	}
	for v, s := range g.vars {
		if !s.equal(o.vars[v]) {
			return false
		}
	}
	for n, k := range g.kind {
		ok, present := o.kind[n]
		if !present || ok != k {
			return false
		}
	}
	for n, rows := range g.edges {
		orows := o.edges[n]
		for f, s := range rows {
			if !s.equal(orows[f]) {
				return false
			}
		}
	}
	for n, rows := range o.edges {
		grows := g.edges[n]
		for f, s := range rows {
			if len(grows[f]) != len(s) {
				return false
			}
		}
	}
	return true
}

// String renders the graph for diagnostics.
func (g *State) String() string {
	var b strings.Builder
	vars := make([]string, 0, len(g.vars))
	for v := range g.vars {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		fmt.Fprintf(&b, "%s -> {%s}\n", v, strings.Join(g.vars[v].sorted(), ", "))
	}
	nodes := make([]string, 0, len(g.kind))
	for n := range g.kind {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		tag := ""
		switch g.kind[n] {
		case kindSeg:
			tag = " (seg)"
		case kindExt:
			tag = " (ext)"
		}
		fields := make([]string, 0, len(g.edges[n]))
		for f := range g.edges[n] {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			fmt.Fprintf(&b, "%s%s .%s -> {%s}\n", n, tag, f,
				strings.Join(g.edges[n][f].sorted(), ", "))
		}
	}
	return b.String()
}

// Analysis is the SMG analysis result for one function.
type Analysis struct {
	Graph  *norm.Graph
	Env    *shape.Env
	Before []*State // per CFG node; nil = unreachable

	// canon is a union-find over node labels: every rename a fold or a
	// materialization performs unions the two labels, so an object's
	// representative is stable across the whole analysis modulo find().
	// LoopCarried compares representatives for exactly this reason.
	canon map[string]string

	// bailed is the sound escape hatch: if the fixpoint failed to converge
	// within the step budget (never observed; strong updates make the
	// transfer non-monotone in principle) or its context ended first, every
	// query degrades to the conservative answer.
	bailed bool

	// Per-analysis counter snapshots (also accumulated process-wide).
	NodesCreated     int
	SegmentsFolded   int
	Materializations int
}

// Analyze runs the SMG analysis. See AnalyzeCtx.
func Analyze(g *norm.Graph, env *shape.Env) *Analysis {
	return AnalyzeCtx(context.Background(), g, env)
}

// AnalyzeCtx runs the SMG analysis over one function. A done context ends
// the run as the step budget does: every query then answers conservatively.
// When the context carries a tracer the run lands as an "smg" span whose
// attributes report the engine counters (nodes created, segments folded,
// materializations) and whether the run bailed.
func AnalyzeCtx(ctx context.Context, g *norm.Graph, env *shape.Env) *Analysis {
	_, span := obs.Start(ctx, "smg")
	defer span.End()
	span.SetAttr("fn", g.Fn.Decl.Name)

	a := &Analysis{
		Graph:  g,
		Env:    env,
		Before: make([]*State, len(g.Nodes)),
		canon:  map[string]string{},
	}

	entry := NewState()
	for _, p := range g.Fn.Decl.Params {
		if !p.Pointer {
			continue
		}
		u := a.ensureExt(entry, p.TypeName)
		entry.vars[p.Name] = valSet{u: true, nilLabel: true}
	}

	f := &flow{a: a, entry: entry, upd: map[[2]int]int{}}
	_, err := norm.Solve[*State](ctx, g, g.Entry, 4096+512*len(g.Nodes), f)
	a.bailed = err != nil
	span.SetAttr("bailed", a.bailed)

	stats.analyses.Add(1)
	stats.nodes.Add(uint64(a.NodesCreated))
	stats.folds.Add(uint64(a.SegmentsFolded))
	stats.mats.Add(uint64(a.Materializations))
	span.SetAttr("nodes", a.NodesCreated)
	span.SetAttr("segments", a.SegmentsFolded)
	span.SetAttr("materializations", a.Materializations)
	return a
}

// widenAt is the per-edge update count after which new out-states are
// joined with the old ones, forcing monotone growth (and with the finite
// label universe, convergence).
const widenAt = 16

// flow is the analysis's dataflow for norm.Solve.
type flow struct {
	a     *Analysis
	entry *State
	upd   map[[2]int]int // per edge, by node ID and successor index: its updates
}

// Visit joins the incoming states (the entry starts from entry), applies
// n's statement and sends the result along n's edges, narrowed per branch
// edge. An infeasible edge keeps its old state, and past widenAt updates an
// edge's new state is joined with its old one.
func (f *flow) Visit(n *norm.Node, in, out []*State) {
	a := f.a
	var before *State
	if len(in) == 0 {
		before = f.entry.Clone()
	} else {
		before = in[0].Clone()
		for _, st := range in[1:] {
			before.join(st)
		}
		if len(in) > 1 {
			// Joins are where runs appear (a loop's back edge merging the
			// grown list into the head state): garbage-collect, then fold
			// uninterrupted runs into segments.
			a.gc(before)
			a.fold(before)
		}
	}
	a.Before[n.ID] = before
	after := before.Clone()
	if n.Kind == norm.NodeStmt {
		a.apply(after, n)
	}
	for si := range n.Succs {
		st := after
		if n.Kind == norm.NodeBranch && n.Cond != nil {
			if st = refine(after, n.Cond, si == 0); st == nil {
				// Infeasible edge: nothing flows to this successor. An
				// earlier, coarser out-state may linger from a previous
				// iteration; keeping it only over-approximates.
				continue
			}
		}
		old := out[si]
		if old != nil && old.equal(st) {
			continue
		}
		e := [2]int{n.ID, si}
		if f.upd[e]++; f.upd[e] > widenAt && old != nil {
			// The edge's stored state must not be written: join into a copy.
			widened := old.Clone()
			widened.join(st)
			if st = widened; old.equal(st) {
				continue
			}
		}
		out[si] = st
	}
}

// Equal reports no two states equal: Visit hands the solver only states it
// has already compared unequal to the edge's old one, so comparing again
// would only repeat that work.
func (*flow) Equal(a, b *State) bool { return false }

// newNode installs a node with every declared pointer field nil-initialized
// (mini's new zeroes records).
func (a *Analysis) newNode(g *State, label string, k nodeKind, typeName string) {
	g.kind[label] = k
	g.typeOf[label] = typeName
	rows := map[string]valSet{}
	if t := a.Env.Type(typeName); t != nil {
		for _, f := range t.Fields {
			rows[f.Name] = valSet{nilLabel: true}
		}
	}
	g.edges[label] = rows
	a.NodesCreated++
}

// ensureExt returns the per-type external region, creating it (closed over
// its fields: an unknown object's fields point to unknown objects or nil)
// on first use.
func (a *Analysis) ensureExt(g *State, typeName string) string {
	label := "ext:" + typeName
	if _, ok := g.kind[label]; ok {
		return label
	}
	g.kind[label] = kindExt
	g.typeOf[label] = typeName
	g.edges[label] = map[string]valSet{}
	a.NodesCreated++
	if t := a.Env.Type(typeName); t != nil {
		for _, f := range t.Fields {
			target := a.ensureExt(g, f.Target)
			g.edges[label][f.Name] = valSet{target: true, nilLabel: true}
		}
	}
	return label
}

// refine narrows the state along one branch edge. A nil result means the
// edge is infeasible: the condition contradicts everything the tracked
// variable could hold, so no concrete state flows there. Bottom must not
// be propagated as an ordinary state — every *other* variable still
// carries its pre-branch binding, and letting those stale values reach a
// join smuggles dead-path facts past the guard (a fresh node's NULL field
// pruned by `!= NULL` would resurrect as the pre-load value and turn
// into a spurious must-alias).
func refine(g *State, c *norm.Cond, taken bool) *State {
	kind := c.Kind
	if !taken {
		switch kind {
		case norm.CondNilEQ:
			kind = norm.CondNilNE
		case norm.CondNilNE:
			kind = norm.CondNilEQ
		default:
			return g
		}
	}
	s, tracked := g.vars[c.Var]
	switch kind {
	case norm.CondNilEQ:
		if tracked && !s[nilLabel] {
			return nil
		}
		out := g.Clone()
		out.vars[c.Var] = valSet{nilLabel: true}
		return out
	case norm.CondNilNE:
		if !tracked {
			// Untracked means "anything", which includes non-nil values;
			// there is nothing to narrow.
			return g
		}
		ns := s.clone()
		delete(ns, nilLabel)
		if len(ns) == 0 {
			return nil
		}
		out := g.Clone()
		out.vars[c.Var] = ns
		return out
	}
	return g
}

func (a *Analysis) apply(g *State, n *norm.Node) {
	s := n.Stmt
	switch s.Op {
	case norm.Assign:
		g.vars[s.Dst] = g.vars[s.Src].clone()
	case norm.AssignNil:
		g.vars[s.Dst] = valSet{nilLabel: true}
	case norm.AssignNew:
		g.vars[s.Dst] = valSet{a.allocate(g, n.ID, s.TypeName): true}
	case norm.Deref:
		g.vars[s.Dst] = a.targets(g, g.vars[s.Src], s.Field)
	case norm.StorePtr:
		a.store(g, s)
	case norm.Free:
		// Conservative no-op: the variable keeps its targets, so a
		// dangling pointer still admits every alias it admitted before.
	case norm.Call:
		a.havoc(g, s.Args)
	}
}

// targets unions the field's has-value edges over every non-nil base.
func (a *Analysis) targets(g *State, bases valSet, field string) valSet {
	out := valSet{}
	for b := range bases {
		if b == nilLabel {
			continue
		}
		for t := range g.edges[b][field] {
			out[t] = true
		}
	}
	return out
}

// allocate returns the node for an allocation site: the first allocCap
// executions materialize distinct regions s<site>.<i>; beyond that the
// per-site segment absorbs them (its fields weakly gain nil, the new
// object's initial value).
func (a *Analysis) allocate(g *State, site int, typeName string) string {
	for i := 0; i < allocCap; i++ {
		label := fmt.Sprintf("s%d.%d", site, i)
		if _, ok := g.kind[label]; !ok {
			a.newNode(g, label, kindRegion, typeName)
			return label
		}
	}
	label := fmt.Sprintf("s%d.sum", site)
	if _, ok := g.kind[label]; !ok {
		a.newNode(g, label, kindSeg, typeName)
	} else if t := a.Env.Type(typeName); t != nil {
		for _, f := range t.Fields {
			g.addEdge(label, f.Name, nilLabel)
		}
	}
	return label
}

func (a *Analysis) store(g *State, s *norm.Stmt) {
	var vals valSet
	if s.Src != "" {
		vals = g.vars[s.Src].clone()
	} else {
		vals = valSet{nilLabel: true}
	}
	var bases []string
	for b := range g.vars[s.Base] {
		if b != nilLabel {
			bases = append(bases, b)
		}
	}
	if len(bases) == 1 {
		b := bases[0]
		switch g.kind[b] {
		case kindRegion:
			// Strong update: the unique concrete region is known.
			if g.edges[b] == nil {
				g.edges[b] = map[string]valSet{}
			}
			g.edges[b][s.Field] = vals
			return
		case kindSeg:
			// Materialize the one element the pointer denotes, then
			// update it strongly.
			if m := a.materialize(g, b); m != "" {
				g.vars[s.Base] = valSet{m: true}
				g.edges[m][s.Field] = vals
				return
			}
		}
	}
	// Weak update: add edges from every possible base.
	for _, b := range bases {
		for t := range vals {
			g.addEdge(b, s.Field, t)
		}
	}
}

// materialize carves a fresh concrete region out of a segment: the carved
// region copies the segment's has-value edges (run-internal links may now
// also reach the new region), and every other reference that could denote
// the segment's elements may denote the carved one too — so the partition
// of concrete objects among nodes is preserved, just refined. Returns ""
// when the materialization budget for this segment is exhausted (the
// caller falls back to a weak update).
func (a *Analysis) materialize(g *State, seg string) string {
	if strings.Count(seg, "!m") >= 2 {
		return ""
	}
	var m string
	for i := 0; ; i++ {
		if i >= matCap {
			return ""
		}
		cand := fmt.Sprintf("%s!m%d", seg, i)
		if _, ok := g.kind[cand]; !ok {
			m = cand
			break
		}
	}
	g.kind[m] = kindRegion
	g.typeOf[m] = g.typeOf[seg]
	rows := map[string]valSet{}
	for f, s := range g.edges[seg] {
		ns := s.clone()
		if ns[seg] {
			ns[m] = true
		}
		rows[f] = ns
	}
	g.edges[m] = rows
	for _, s := range g.vars {
		if s[seg] {
			s[m] = true
		}
	}
	for n, nrows := range g.edges {
		if n == m {
			continue
		}
		for _, s := range nrows {
			if s[seg] {
				s[m] = true
			}
		}
	}
	a.union(m, seg)
	a.NodesCreated++
	a.Materializations++
	return m
}

// havoc models an opaque call: everything reachable from the arguments may
// be rewired by the callee — any reached field may now point to any
// reachable object of the field's type, to a callee-allocated object (the
// external region), or to nil. Variable bindings and node kinds survive: a
// callee cannot change which object a caller-local points at.
func (a *Analysis) havoc(g *State, args []string) {
	reach := map[string]bool{}
	var stack []string
	add := func(n string) {
		if n != nilLabel && !reach[n] {
			reach[n] = true
			stack = append(stack, n)
		}
	}
	for _, arg := range args {
		for n := range g.vars[arg] {
			add(n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range g.edges[n] {
			for t := range set {
				add(t)
			}
		}
	}
	// The callee can also link its own allocations to reached objects, so
	// the external regions of every reached field type join the pool that
	// gets fully connected.
	pool := make([]string, 0, len(reach))
	for n := range reach {
		pool = append(pool, n)
	}
	for i := 0; i < len(pool); i++ {
		t := a.Env.Type(g.typeOf[pool[i]])
		if t == nil {
			continue
		}
		for _, f := range t.Fields {
			ext := a.ensureExt(g, f.Target)
			if !reach[ext] {
				reach[ext] = true
				pool = append(pool, ext)
			}
		}
	}
	for _, n := range pool {
		t := a.Env.Type(g.typeOf[n])
		if t == nil {
			continue
		}
		for _, f := range t.Fields {
			g.addEdge(n, f.Name, nilLabel)
			for _, m := range pool {
				if g.typeOf[m] == f.Target {
					g.addEdge(n, f.Name, m)
				}
			}
		}
	}
}

// gc drops nodes unreachable from any variable; their labels become
// available again, and fixed-point states stay small.
func (a *Analysis) gc(g *State) {
	reach := map[string]bool{}
	var stack []string
	add := func(n string) {
		if n != nilLabel && !reach[n] {
			reach[n] = true
			stack = append(stack, n)
		}
	}
	for _, s := range g.vars {
		for n := range s {
			add(n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range g.edges[n] {
			for t := range set {
				add(t)
			}
		}
	}
	for n := range g.kind {
		if !reach[n] {
			delete(g.kind, n)
			delete(g.typeOf, n)
			delete(g.edges, n)
		}
	}
}

// fold absorbs uninterrupted runs into segments: a node t whose only
// incoming reference in the whole graph is a single has-value edge h.f
// (no variable names it, nothing else points at it) is merged into h,
// and h becomes a segment. The run's internal link turns into h's
// self-edge; repeated folding collapses a loop-built list into one
// segment node. Deterministic: candidates are visited in sorted order.
func (a *Analysis) fold(g *State) {
	for {
		inVars := map[string]bool{}
		for _, s := range g.vars {
			for n := range s {
				inVars[n] = true
			}
		}
		counts := map[string]int{}
		owner := map[string]string{}
		for h, rows := range g.edges {
			for _, s := range rows {
				for t := range s {
					counts[t]++
					owner[t] = h
				}
			}
		}
		cands := make([]string, 0, len(g.kind))
		for n := range g.kind {
			cands = append(cands, n)
		}
		sort.Strings(cands)
		merged := false
		for _, t := range cands {
			if counts[t] != 1 || inVars[t] || g.kind[t] == kindExt {
				continue
			}
			h := owner[t]
			if h == t || g.kind[h] == kindExt || g.typeOf[h] != g.typeOf[t] {
				continue
			}
			a.merge(g, t, h)
			merged = true
			break
		}
		if !merged {
			return
		}
	}
}

// merge folds node t into h: every reference to t now names h, t's
// has-value edges union into h's, and h becomes a segment.
func (a *Analysis) merge(g *State, t, h string) {
	for _, s := range g.vars {
		if s[t] {
			delete(s, t)
			s[h] = true
		}
	}
	for _, rows := range g.edges {
		for _, s := range rows {
			if s[t] {
				delete(s, t)
				s[h] = true
			}
		}
	}
	for f, s := range g.edges[t] {
		for x := range s {
			g.addEdge(h, f, x)
		}
	}
	delete(g.edges, t)
	delete(g.kind, t)
	delete(g.typeOf, t)
	g.kind[h] = kindSeg
	a.union(t, h)
	a.SegmentsFolded++
}

// union-find over labels; find flattens paths as it walks.
func (a *Analysis) union(x, y string) {
	rx, ry := a.find(x), a.find(y)
	if rx != ry {
		a.canon[rx] = ry
	}
}

func (a *Analysis) find(x string) string {
	r := x
	for {
		p, ok := a.canon[r]
		if !ok {
			break
		}
		r = p
	}
	for x != r {
		a.canon[x], x = r, a.canon[x]
	}
	return r
}

// stateAt returns the state before node n (empty if unreachable).
func (a *Analysis) stateAt(n *norm.Node) *State {
	if g := a.Before[n.ID]; g != nil {
		return g
	}
	return NewState()
}

func (a *Analysis) sameType(p, q string) bool {
	tp, tq := a.Graph.VarTypes[p], a.Graph.VarTypes[q]
	return tp.Kind == types.KindPointer && tq.Kind == types.KindPointer &&
		tp.Record == tq.Record
}

// Name implements alias.Oracle.
func (a *Analysis) Name() string { return "smg" }

// MayAlias implements alias.Oracle: the points-to sets share a non-nil
// value. Distinct nodes denote disjoint objects, so an empty intersection
// really means "never the same object".
func (a *Analysis) MayAlias(n *norm.Node, p, q string) bool {
	if p == q {
		return true
	}
	if a.bailed {
		return a.sameType(p, q)
	}
	g := a.stateAt(n)
	for x := range g.vars[p] {
		if x != nilLabel && g.vars[q][x] {
			return true
		}
	}
	return false
}

// MustAlias implements alias.Oracle: both variables have exactly one
// possible value, it is the same one, and it is a concrete region (a
// segment or external node covers many objects; nil is not an object).
func (a *Analysis) MustAlias(n *norm.Node, p, q string) bool {
	if p == q {
		return true
	}
	if a.bailed {
		return false
	}
	g := a.stateAt(n)
	sp, sq := g.vars[p], g.vars[q]
	if len(sp) != 1 || len(sq) != 1 {
		return false
	}
	for x := range sp {
		return sq[x] && x != nilLabel && g.kind[x] == kindRegion
	}
	return false
}

// MayBeNil reports whether the variable can hold NULL before n. Untracked
// variables (never assigned on any path, or analysis bailed) may be
// anything, nil included. Differential harnesses use this to separate a
// genuine must/may conflict from the vacuous case where a path-matrix
// "must-alias" (same value) is satisfied by both variables being NULL —
// which is not an object alias, so the SMG rightly refutes may.
func (a *Analysis) MayBeNil(n *norm.Node, p string) bool {
	if a.bailed {
		return true
	}
	g := a.stateAt(n)
	s, ok := g.vars[p]
	if !ok || len(s) == 0 {
		return true
	}
	return s[nilLabel]
}

// LoopCarried implements alias.Oracle. At the loop-head fixed point the
// points-to sets cover every iteration, but a fold or materialization
// between iterations can rename the node an object lives in — so values
// are compared through their canonical representatives, which those
// operations keep stable.
func (a *Analysis) LoopCarried(l *norm.Loop, p, q string) bool {
	if len(l.Branch.Succs) == 0 {
		return true
	}
	if a.bailed {
		return p == q || a.sameType(p, q)
	}
	g := a.stateAt(l.Branch.Succs[0])
	roots := map[string]bool{}
	for x := range g.vars[p] {
		if x != nilLabel {
			roots[a.find(x)] = true
		}
	}
	for x := range g.vars[q] {
		if x != nilLabel && roots[a.find(x)] {
			return true
		}
	}
	return false
}

// Valid implements alias.Oracle: SMGs assert no ADDS abstraction, so there
// is never a violated one to protect.
func (a *Analysis) Valid(*norm.Node) bool { return true }

// ---------------------------------------------------------------------------
// Process-wide engine counters (exported to /metrics as addsd_engine_smg_*).

var stats struct {
	analyses atomic.Uint64
	nodes    atomic.Uint64
	folds    atomic.Uint64
	mats     atomic.Uint64
}

// Stats is a snapshot of the process-wide SMG engine counters.
type Stats struct {
	// Analyses counts completed SMG analyses.
	Analyses uint64
	// Nodes counts abstract nodes created (regions, segments, externals).
	Nodes uint64
	// Segments counts fold operations (runs absorbed into segments).
	Segments uint64
	// Materializations counts regions carved out of segments for strong
	// updates.
	Materializations uint64
}

// ReadStats snapshots the process-wide counters.
func ReadStats() Stats {
	return Stats{
		Analyses:         stats.analyses.Load(),
		Nodes:            stats.nodes.Load(),
		Segments:         stats.folds.Load(),
		Materializations: stats.mats.Load(),
	}
}

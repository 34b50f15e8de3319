// Package klimit implements the k-limited storage-graph baseline the paper
// compares against (Section 1.2): a structure-estimation alias analysis in
// the tradition of Jones & Muchnick [JM81] and Chase, Wegman & Zadeck
// [CWZ90].
//
// The abstract heap is a graph of abstract locations. Allocation sites
// materialize up to k distinct nodes (the k-limit); further allocations from
// the same site merge into a per-site summary node. Merging is what dooms
// the approach on recursive structures: the summary node acquires self-edges
// (a "cycle in the abstraction"), after which a list built by a loop can no
// longer be distinguished from a truly cyclic structure — the analysis must
// admit that successive traversal steps may revisit a node, which is exactly
// the false dependence the paper's Figure 2 shows. ADDS declarations have no
// counterpart here: an unknown input is a fully-connected summary region.
package klimit

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/norm"
	"repro/internal/shape"
)

// DefaultK is the customary small limit.
const DefaultK = 2

// nodeSet is a set of abstract location labels.
type nodeSet map[string]bool

func (s nodeSet) clone() nodeSet {
	out := make(nodeSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func (s nodeSet) sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Heap is one abstract storage graph.
type Heap struct {
	vars    map[string]nodeSet
	edges   map[string]map[string]nodeSet // node -> field -> targets
	summary map[string]bool
	typeOf  map[string]string // node -> record type name
}

// NewHeap returns an empty heap.
func NewHeap() *Heap {
	return &Heap{
		vars:    map[string]nodeSet{},
		edges:   map[string]map[string]nodeSet{},
		summary: map[string]bool{},
		typeOf:  map[string]string{},
	}
}

// Clone deep-copies the heap.
func (h *Heap) Clone() *Heap {
	out := NewHeap()
	for v, s := range h.vars {
		out.vars[v] = s.clone()
	}
	for n, fs := range h.edges {
		m := map[string]nodeSet{}
		for f, s := range fs {
			m[f] = s.clone()
		}
		out.edges[n] = m
	}
	for n := range h.summary {
		out.summary[n] = true
	}
	for n, t := range h.typeOf {
		out.typeOf[n] = t
	}
	return out
}

func (h *Heap) ensureNode(label, typeName string, summary bool) {
	if _, ok := h.typeOf[label]; !ok {
		h.typeOf[label] = typeName
		h.edges[label] = map[string]nodeSet{}
	}
	if summary {
		h.summary[label] = true
	}
}

func (h *Heap) addEdge(from, field, to string) {
	fs := h.edges[from]
	if fs == nil {
		fs = map[string]nodeSet{}
		h.edges[from] = fs
	}
	if fs[field] == nil {
		fs[field] = nodeSet{}
	}
	fs[field][to] = true
}

// targets returns the nodes reachable from set via field.
func (h *Heap) targets(set nodeSet, field string) nodeSet {
	out := nodeSet{}
	for n := range set {
		for t := range h.edges[n][field] {
			out[t] = true
		}
	}
	return out
}

// join adds b's nodes, edges and variable targets to h, which must own its
// maps (a clone, not a heap stored on an edge).
func (h *Heap) join(b *Heap) {
	for v, s := range b.vars {
		if h.vars[v] == nil {
			h.vars[v] = nodeSet{}
		}
		for n := range s {
			h.vars[v][n] = true
		}
	}
	for n, fs := range b.edges {
		for f, s := range fs {
			for t := range s {
				h.addEdge(n, f, t)
			}
		}
	}
	for n := range b.summary {
		h.summary[n] = true
	}
	for n, t := range b.typeOf {
		h.typeOf[n] = t
	}
}

// equal compares heaps for fixed-point detection.
func (h *Heap) equal(o *Heap) bool {
	if len(h.vars) != len(o.vars) || len(h.summary) != len(o.summary) ||
		len(h.typeOf) != len(o.typeOf) {
		return false
	}
	for v, s := range h.vars {
		os := o.vars[v]
		if len(os) != len(s) {
			return false
		}
		for n := range s {
			if !os[n] {
				return false
			}
		}
	}
	for n := range h.summary {
		if !o.summary[n] {
			return false
		}
	}
	for n, fs := range h.edges {
		ofs := o.edges[n]
		for f, s := range fs {
			os := ofs[f]
			if len(os) != len(s) {
				return false
			}
			for t := range s {
				if !os[t] {
					return false
				}
			}
		}
	}
	for n, fs := range o.edges {
		hfs := h.edges[n]
		for f, s := range fs {
			if len(hfs[f]) != len(s) {
				return false
			}
		}
	}
	return true
}

// String renders the heap for diagnostics.
func (h *Heap) String() string {
	var b strings.Builder
	vars := make([]string, 0, len(h.vars))
	for v := range h.vars {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	for _, v := range vars {
		fmt.Fprintf(&b, "%s -> {%s}\n", v, strings.Join(h.vars[v].sorted(), ", "))
	}
	nodes := make([]string, 0, len(h.edges))
	for n := range h.edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		tag := ""
		if h.summary[n] {
			tag = " (summary)"
		}
		fields := make([]string, 0, len(h.edges[n]))
		for f := range h.edges[n] {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			fmt.Fprintf(&b, "%s%s .%s -> {%s}\n", n, tag, f,
				strings.Join(h.edges[n][f].sorted(), ", "))
		}
	}
	return b.String()
}

// Analysis is the k-limited analysis result for one function.
type Analysis struct {
	K      int
	Graph  *norm.Graph
	Env    *shape.Env
	Before []*Heap // per CFG node
}

// Analyze runs the k-limited storage-graph analysis. It stops with ctx's
// error once ctx is done.
func Analyze(ctx context.Context, g *norm.Graph, env *shape.Env, k int) (*Analysis, error) {
	if k <= 0 {
		k = DefaultK
	}
	a := &Analysis{K: k, Graph: g, Env: env, Before: make([]*Heap, len(g.Nodes))}

	init := NewHeap()
	for _, p := range g.Fn.Decl.Params {
		if !p.Pointer {
			continue
		}
		u := a.unknownNode(init, p.TypeName)
		init.vars[p.Name] = nodeSet{u: true}
	}
	if _, err := norm.Solve[*Heap](ctx, g, g.Entry, 0, &flow{a: a, init: init}); err != nil {
		return nil, err
	}
	return a, nil
}

// flow is the analysis's dataflow for norm.Solve: a plain join of the
// incoming heaps (the entry starts from init), the statement's transfer,
// and a refinement per branch edge.
type flow struct {
	a    *Analysis
	init *Heap
}

func (f *flow) Visit(n *norm.Node, in, out []*Heap) {
	var before *Heap
	if len(in) == 0 {
		before = f.init.Clone()
	} else {
		before = in[0].Clone()
		for _, h := range in[1:] {
			before.join(h)
		}
	}
	f.a.Before[n.ID] = before
	after := before.Clone()
	if n.Kind == norm.NodeStmt {
		f.a.apply(after, n)
	}
	for si := range n.Succs {
		out[si] = after
		if n.Kind == norm.NodeBranch && n.Cond != nil {
			out[si] = refine(after, n.Cond, si == 0)
		}
	}
}

func (*flow) Equal(a, b *Heap) bool { return a.equal(b) }

// unknownNode materializes the fully-connected summary region representing
// an unknown input of the given type, returning its label.
func (a *Analysis) unknownNode(h *Heap, typeName string) string {
	label := "unknown:" + typeName
	if _, ok := h.typeOf[label]; ok {
		return label
	}
	h.ensureNode(label, typeName, true)
	// Close the region over every pointer field transitively.
	t := a.Env.Type(typeName)
	if t != nil {
		for _, f := range t.Fields {
			target := a.unknownNode(h, f.Target)
			h.addEdge(label, f.Name, target)
			// The unknown region is maximally connected: the target's
			// fields may point back as well (handled by its own closure).
		}
	}
	return label
}

func refine(h *Heap, c *norm.Cond, taken bool) *Heap {
	kind := c.Kind
	if !taken {
		switch kind {
		case norm.CondNilEQ:
			kind = norm.CondNilNE
		case norm.CondNilNE:
			kind = norm.CondNilEQ
		default:
			return h
		}
	}
	if kind == norm.CondNilEQ {
		out := h.Clone()
		out.vars[c.Var] = nodeSet{}
		return out
	}
	return h
}

func (a *Analysis) apply(h *Heap, n *norm.Node) {
	s := n.Stmt
	switch s.Op {
	case norm.Assign:
		h.vars[s.Dst] = h.vars[s.Src].clone()
	case norm.AssignNil:
		h.vars[s.Dst] = nodeSet{}
	case norm.AssignNew:
		h.vars[s.Dst] = nodeSet{a.allocate(h, n.ID, s.TypeName): true}
	case norm.Deref:
		h.vars[s.Dst] = h.targets(h.vars[s.Src], s.Field)
	case norm.StorePtr:
		a.store(h, s)
	case norm.Free:
		h.vars[s.Base] = nodeSet{}
	case norm.Call:
		a.havoc(h, s.Args)
	}
}

// allocate returns the abstract node for an allocation: the first k
// executions of a site materialize distinct nodes site:<id>:<i>; beyond
// that the per-site summary absorbs them. A site re-executed in a loop
// therefore always ends in the summary — this is where the k-limit bites.
func (a *Analysis) allocate(h *Heap, site int, typeName string) string {
	for i := 0; i < a.K; i++ {
		label := fmt.Sprintf("site%d:%d", site, i)
		if _, ok := h.typeOf[label]; !ok {
			h.ensureNode(label, typeName, false)
			return label
		}
	}
	label := fmt.Sprintf("site%d:sum", site)
	h.ensureNode(label, typeName, true)
	return label
}

func (a *Analysis) store(h *Heap, s *norm.Stmt) {
	bases := h.vars[s.Base]
	var targets nodeSet
	if s.Src != "" {
		targets = h.vars[s.Src].clone()
	} else {
		targets = nodeSet{}
	}
	if len(bases) == 1 {
		for b := range bases {
			if !h.summary[b] {
				// Strong update: the unique concrete location is known.
				if h.edges[b] == nil {
					h.edges[b] = map[string]nodeSet{}
				}
				h.edges[b][s.Field] = targets
				return
			}
		}
	}
	// Weak update: add edges from every possible base.
	for b := range bases {
		for t := range targets {
			h.addEdge(b, s.Field, t)
		}
	}
}

// havoc connects everything reachable from the arguments into one
// conservatively-cyclic region.
func (a *Analysis) havoc(h *Heap, args []string) {
	reach := nodeSet{}
	var stack []string
	for _, arg := range args {
		for n := range h.vars[arg] {
			if !reach[n] {
				reach[n] = true
				stack = append(stack, n)
			}
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range h.edges[n] {
			for t := range set {
				if !reach[t] {
					reach[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	for n := range reach {
		h.summary[n] = true
		t := a.Env.Type(h.typeOf[n])
		if t == nil {
			continue
		}
		for _, f := range t.Fields {
			for m := range reach {
				if h.typeOf[m] == f.Target {
					h.addEdge(n, f.Name, m)
				}
			}
		}
	}
}

// heapAt returns the heap before node n (empty if unreachable).
func (a *Analysis) heapAt(n *norm.Node) *Heap {
	if h := a.Before[n.ID]; h != nil {
		return h
	}
	return NewHeap()
}

// Name implements alias.Oracle.
func (a *Analysis) Name() string { return fmt.Sprintf("klimit(k=%d)", a.K) }

// MayAlias implements alias.Oracle: the points-to sets intersect.
func (a *Analysis) MayAlias(n *norm.Node, p, q string) bool {
	if p == q {
		return true
	}
	h := a.heapAt(n)
	for x := range h.vars[p] {
		if h.vars[q][x] {
			return true
		}
	}
	return false
}

// MustAlias implements alias.Oracle: both point to the same unique
// non-summary location.
func (a *Analysis) MustAlias(n *norm.Node, p, q string) bool {
	if p == q {
		return true
	}
	h := a.heapAt(n)
	sp, sq := h.vars[p], h.vars[q]
	if len(sp) != 1 || len(sq) != 1 {
		return false
	}
	for x := range sp {
		return sq[x] && !h.summary[x]
	}
	return false
}

// LoopCarried implements alias.Oracle: at the loop-head fixed point the
// points-to sets summarize all iterations, so any shared abstract node means
// values from different iterations may coincide. A shared summary node is
// the classic k-limited failure: the analysis cannot tell the loop advances.
func (a *Analysis) LoopCarried(l *norm.Loop, p, q string) bool {
	if len(l.Branch.Succs) == 0 {
		return true
	}
	h := a.heapAt(l.Branch.Succs[0])
	for x := range h.vars[p] {
		if h.vars[q][x] {
			return true
		}
	}
	return false
}

// Valid implements alias.Oracle: no abstraction to validate.
func (a *Analysis) Valid(*norm.Node) bool { return true }

// Package depgraph builds data-dependence graphs for loop bodies of the
// pseudo-assembly IR, using a pluggable alias oracle for memory
// disambiguation. It reproduces the paper's Figure 2: with conservative
// aliasing the shift-origin loop carries false dependences from the store
// S5 back to the loads S2 and S3; with ADDS + general path matrix analysis
// those edges disappear and the loop pipelines.
package depgraph

import (
	"fmt"
	"strings"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/norm"
	"repro/internal/shape"
	"repro/internal/source/types"
)

// Kind classifies a dependence edge.
type Kind int

// Edge kinds.
const (
	Flow    Kind = iota // write then read
	Anti                // read then write
	Output              // write then write
	Control             // branch ordering
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Control:
		return "control"
	}
	return "?"
}

// Edge is one dependence between two body instructions (indices into Body).
type Edge struct {
	From, To int
	Kind     Kind
	Carried  bool   // crosses the back edge (From at iter i, To at iter i+1)
	Must     bool   // definitely the same location/value
	Mem      bool   // memory dependence (false: register or control)
	Loc      string // register name or "base->field" description
}

// String renders the edge.
func (e *Edge) String() string {
	tag := ""
	if e.Carried {
		tag = " (carried)"
	}
	if e.Must {
		tag += " (must)"
	}
	return fmt.Sprintf("S%d -> S%d %s on %s%s", e.From, e.To, e.Kind, e.Loc, tag)
}

// Graph is the dependence graph of one loop body.
type Graph struct {
	Prog   *ir.Program
	Loop   *ir.LoopInfo
	Body   []*ir.Instr // test + body + back-edge goto
	Edges  []*Edge
	Oracle string // oracle name used
}

// Options configures dependence construction.
type Options struct {
	Oracle   alias.Oracle
	NormLoop *norm.Loop            // loop in the normalized CFG (oracle's world)
	Env      *shape.Env            // for self-advance field info (display only)
	VarTypes map[string]types.Type // IR register types; unknown bases are conservative
}

// Build constructs the dependence graph for a loop: instructions from the
// condition test through the back-edge goto, matching the paper's S1..S7
// numbering for the shift loop.
func Build(p *ir.Program, l *ir.LoopInfo, opt Options) *Graph {
	body := p.Instrs[l.TestStart : l.BodyEnd+1]
	g := &Graph{Prog: p, Loop: l, Body: body, Oracle: opt.Oracle.Name()}
	b := &builder{g: g, opt: opt}
	b.registerDeps()
	b.memoryDeps()
	b.controlDeps()
	return g
}

type builder struct {
	g   *Graph
	opt Options
}

func (b *builder) addEdge(e *Edge) { b.g.Edges = append(b.g.Edges, e) }

// registerDeps computes flow/anti/output dependences on registers, both
// within an iteration and across the back edge.
func (b *builder) registerDeps() {
	body := b.g.Body
	uses := make([][]string, len(body))
	for j, in := range body {
		uses[j] = in.Uses()
	}
	defsBetween := func(reg string, from, to int) bool {
		for k := from; k < to; k++ {
			if body[k].Defs() == reg {
				return true
			}
		}
		return false
	}
	for i, a := range body {
		if d := a.Defs(); d != "" {
			// Same-iteration flow: first uses after i with no kill between.
			for j := i + 1; j < len(body); j++ {
				for _, u := range uses[j] {
					if u == d && !defsBetween(d, i+1, j) {
						b.addEdge(&Edge{From: i, To: j, Kind: Flow, Loc: d, Must: true})
					}
				}
				if body[j].Defs() == d && !defsBetween(d, i+1, j) {
					b.addEdge(&Edge{From: i, To: j, Kind: Output, Loc: d, Must: true})
				}
			}
			// Carried flow: def live across the back edge into earlier uses.
			if !defsBetween(d, i+1, len(body)) {
				for j := 0; j <= i; j++ {
					for _, u := range uses[j] {
						if u == d && !defsBetween(d, 0, j) {
							b.addEdge(&Edge{From: i, To: j, Kind: Flow, Loc: d,
								Carried: true, Must: true})
						}
					}
				}
			}
		}
		// Anti: a use followed by a def.
		for _, u := range uses[i] {
			for j := i + 1; j < len(body); j++ {
				if body[j].Defs() == u {
					if !defsBetween(u, i+1, j) {
						b.addEdge(&Edge{From: i, To: j, Kind: Anti, Loc: u, Must: true})
					}
					break
				}
			}
		}
	}
}

// access describes one memory access in the body.
type access struct {
	idx     int
	base    string
	field   string
	write   bool
	version int // defs of base before this instruction (within the body)
}

// memoryDeps computes load/store dependences using the alias oracle.
func (b *builder) memoryDeps() {
	body := b.g.Body
	var accs []access
	vers := map[string]int{}
	for i, in := range body {
		if in.IsMem() {
			accs = append(accs, access{
				idx: i, base: in.Src1, field: in.Field,
				write: in.Op == ir.Store, version: vers[in.Src1],
			})
		}
		if d := in.Defs(); d != "" {
			vers[d]++
		}
	}
	advances := b.selfAdvances(vers)

	for i, a := range accs {
		for _, c := range accs[i+1:] {
			if !a.write && !c.write {
				continue
			}
			if a.field != c.field {
				continue
			}
			if may, must := b.sameIter(a, c); may {
				b.addEdge(&Edge{From: a.idx, To: c.idx, Kind: depKind(a, c),
					Mem: true, Must: must, Loc: a.base + "->" + a.field})
			}
		}
		// Carried: a at iteration i against every access at iteration i+1.
		for _, c := range accs {
			if !a.write && !c.write {
				continue
			}
			if a.field != c.field {
				continue
			}
			if may, must := b.crossIter(a, c, advances); may {
				b.addEdge(&Edge{From: a.idx, To: c.idx, Kind: depKind(a, c),
					Carried: true, Mem: true, Must: must,
					Loc: a.base + "->" + a.field})
			}
		}
	}
}

func depKind(a, c access) Kind {
	switch {
	case a.write && c.write:
		return Output
	case a.write:
		return Flow
	default:
		return Anti
	}
}

// selfAdvance describes how a base register changes per iteration.
type selfAdvance struct {
	count  int  // number of defs in the body
	simple bool // every def is "load v->f, v" over one field
	field  string
}

func (b *builder) selfAdvances(vers map[string]int) map[string]selfAdvance {
	out := map[string]selfAdvance{}
	for v, count := range vers {
		sa := selfAdvance{count: count, simple: true}
		for _, in := range b.g.Body {
			if in.Defs() != v {
				continue
			}
			if in.Op == ir.Load && in.Src1 == v && (sa.field == "" || sa.field == in.Field) {
				sa.field = in.Field
				continue
			}
			sa.simple = false
		}
		out[v] = sa
	}
	return out
}

// known reports whether the base register is a pointer variable the oracle
// can reason about (IR temporaries are not).
func (b *builder) known(base string) bool {
	if b.opt.VarTypes == nil {
		return false
	}
	t, ok := b.opt.VarTypes[base]
	return ok && t.Kind == types.KindPointer && !strings.HasPrefix(base, "R")
}

// queryPoint returns the CFG node for oracle MayAlias queries: the loop head
// (whose fixed-point matrix covers every iteration).
func (b *builder) queryPoint() *norm.Node {
	if b.opt.NormLoop != nil && len(b.opt.NormLoop.Branch.Succs) > 0 {
		return b.opt.NormLoop.Branch.Succs[0]
	}
	return nil
}

// sameIter decides whether two accesses in one iteration may (and must)
// touch the same location.
func (b *builder) sameIter(a, c access) (may, must bool) {
	if a.base == c.base {
		if a.version == c.version {
			return true, true
		}
		// The base was redefined between the accesses: same node only if
		// the advance can revisit (oracle's loop-carried self query).
		if b.known(a.base) && b.opt.NormLoop != nil {
			return b.opt.Oracle.LoopCarried(b.opt.NormLoop, a.base, a.base), false
		}
		return true, false
	}
	if !b.known(a.base) || !b.known(c.base) {
		return true, false // unknown temporaries: conservative
	}
	n := b.queryPoint()
	if n == nil {
		return true, false
	}
	if !b.opt.Oracle.Valid(n) {
		return true, false
	}
	if b.opt.Oracle.MustAlias(n, a.base, c.base) && a.version == c.version {
		return true, true
	}
	return b.opt.Oracle.MayAlias(n, a.base, c.base), false
}

// crossIter decides whether access a at iteration i and access c at
// iteration i+1 may (and must) touch the same location.
func (b *builder) crossIter(a, c access, advances map[string]selfAdvance) (may, must bool) {
	if a.base == c.base {
		sa := advances[a.base]
		if sa.simple && a.version == sa.count+c.version {
			// a's value this iteration IS c's value next iteration
			// (e.g. the post-advance p equals next iteration's p).
			return true, true
		}
		if b.known(a.base) && b.opt.NormLoop != nil {
			if sa.simple && !b.opt.Oracle.LoopCarried(b.opt.NormLoop, a.base, a.base) {
				return false, false
			}
			return b.opt.Oracle.LoopCarried(b.opt.NormLoop, a.base, a.base), false
		}
		return true, false
	}
	if !b.known(a.base) || !b.known(c.base) || b.opt.NormLoop == nil {
		return true, false
	}
	n := b.queryPoint()
	if n != nil && !b.opt.Oracle.Valid(n) {
		return true, false
	}
	if b.opt.Oracle.LoopCarried(b.opt.NormLoop, a.base, c.base) {
		return true, false
	}
	// Also admit aliasing visible at the head across iterations.
	if n != nil && b.opt.Oracle.MayAlias(n, a.base, c.base) {
		return true, false
	}
	return false, false
}

// controlDeps orders every instruction after the loop's exit test: nothing
// moves above the branch without an explicit speculation decision by a
// transformation.
func (b *builder) controlDeps() {
	for i, in := range b.g.Body {
		if in.Op != ir.Br {
			continue
		}
		for j := i + 1; j < len(b.g.Body); j++ {
			b.addEdge(&Edge{From: i, To: j, Kind: Control, Loc: "branch", Must: true})
		}
	}
}

// ---------------------------------------------------------------------------
// Queries and rendering

// CarriedMemEdges returns the loop-carried memory dependences — the edges
// whose absence enables software pipelining.
func (g *Graph) CarriedMemEdges() []*Edge {
	var out []*Edge
	for _, e := range g.Edges {
		if e.Carried && e.Mem {
			out = append(out, e)
		}
	}
	return out
}

// HasEdge reports whether a dependence of the kind exists between body
// indices.
func (g *Graph) HasEdge(from, to int, kind Kind, carried bool) bool {
	for _, e := range g.Edges {
		if e.From == from && e.To == to && e.Kind == kind && e.Carried == carried {
			return true
		}
	}
	return false
}

// String renders the graph as a list.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dependences (%s):\n", g.Oracle)
	for i, in := range g.Body {
		fmt.Fprintf(&b, "  S%d: %s\n", i, in)
	}
	for _, e := range g.Edges {
		if e.Kind == Control {
			continue // noise in listings; kept in the graph for scheduling
		}
		fmt.Fprintf(&b, "  %s\n", e)
	}
	return b.String()
}

// DOT renders the graph in Graphviz format (control edges dashed).
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph deps {\n")
	for i, in := range g.Body {
		fmt.Fprintf(&b, "  S%d [label=%q];\n", i, fmt.Sprintf("S%d: %s", i, in))
	}
	for _, e := range g.Edges {
		style := "solid"
		if e.Kind == Control {
			style = "dotted"
		}
		color := "black"
		if e.Carried {
			color = "red"
		}
		fmt.Fprintf(&b, "  S%d -> S%d [label=%q, style=%s, color=%s];\n",
			e.From, e.To, e.Kind.String(), style, color)
	}
	b.WriteString("}\n")
	return b.String()
}

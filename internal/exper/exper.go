// Package exper regenerates every evaluation artifact of the paper (the
// experiment index E1-E10 of DESIGN.md): the worked matrices of Section 5.1,
// the Figure 2 dependence graphs, the Section 5.2 pipelining derivation with
// theoretical and measured speedups, the [HG92] unrolling numbers, and the
// baseline comparisons. cmd/addsbench prints the reports; the root
// bench_test.go wraps them as Go benchmarks.
package exper

import (
	"fmt"
	"strings"

	"repro/internal/alias"
	"repro/internal/depgraph"
	"repro/internal/ir"
	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// Report is one experiment's regenerated table.
type Report struct {
	ID      string
	Title   string
	Claim   string // what the paper reports
	Headers []string
	Rows    [][]string
	Notes   []string
	Figures []string // verbatim blocks (matrices, code, schedules)
}

// Format renders the report as aligned text.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Claim != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Claim)
	}
	if len(r.Headers) > 0 {
		widths := make([]int, len(r.Headers))
		for i, h := range r.Headers {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		line := func(cells []string) {
			for i, c := range cells {
				if i < len(widths) {
					fmt.Fprintf(&b, "  %-*s", widths[i], c)
				} else {
					fmt.Fprintf(&b, "  %s", c)
				}
			}
			b.WriteByte('\n')
		}
		line(r.Headers)
		for _, row := range r.Rows {
			line(row)
		}
	}
	for _, f := range r.Figures {
		b.WriteByte('\n')
		b.WriteString(f)
		if !strings.HasSuffix(f, "\n") {
			b.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Def names one experiment without running it: id, title, and the function
// that regenerates its report. cmd/addsbench uses the registry to list
// experiments cheaply and to run selected ones concurrently.
type Def struct {
	ID    string
	Title string
	Run   func() *Report
}

// Defs returns the experiment registry, in index order. Titles are duplicated
// from the Report literals so listing does not run anything; TestDefs keeps
// the two in sync.
func Defs() []Def {
	return []Def{
		{"E1", "Figure 1 — arrays vs linked lists", E1},
		{"E2", "Section 3 declarations hold on concrete structures", E2},
		{"E3", "Section 5.1.2 — conservative alias matrix for the shift loop", E3},
		{"E4", "Section 5.1.2 — general path matrices (ADDS + GPM)", E4},
		{"E5", "Figure 2 — dependence graph for the pseudo-assembly loop", E5},
		{"E6", "Section 5.2 — software pipelining the shift loop", E6},
		{"E7", "[HG92] — loop unrolling on the scalar machine", E7},
		{"E8", "k-limited graphs vs ADDS+GPM (Section 1.2's criticism)", E8},
		{"E9", "Section 5.1.1 — abstraction validation across a subtree move", E9},
		{"E10", "VLIW width sweep — compaction vs software pipelining", E10},
	}
}

// ByID runs one experiment by id ("E1".."E10"), or nil. Only the requested
// experiment runs.
func ByID(id string) *Report {
	for _, d := range Defs() {
		if strings.EqualFold(d.ID, id) {
			return d.Run()
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Shared fixtures

// TwoWayDecl is the running declaration.
const TwoWayDecl = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
`

// ShiftSrc is the paper's Section 5.1.2 / 5.2 program.
const ShiftSrc = TwoWayDecl + `
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
}
`

// InitSrc is the [HG92] list initialization loop.
const InitSrc = TwoWayDecl + `
void initlist(TwoWayLL *p) {
    while (p != NULL) {
        p->data = 0;
        p = p->next;
    }
}
`

// fixture bundles the per-function artifacts every experiment needs.
type fixture struct {
	info *types.Info
	fi   *types.FuncInfo
	prog *ir.Program
	loop *ir.LoopInfo
	g    *norm.Graph
}

func load(src, fn string) *fixture {
	info := types.MustCheck(parser.MustParse(src))
	fi := info.Func(fn)
	if fi == nil {
		panic("exper: function " + fn + " missing")
	}
	prog := ir.Build(fi, info.Env)
	var loop *ir.LoopInfo
	if len(prog.Loops) > 0 {
		loop = prog.Loops[0]
	}
	return &fixture{info: info, fi: fi, prog: prog, loop: loop, g: norm.Build(fi, info.Env)}
}

func (f *fixture) opts(o alias.Oracle) depgraph.Options {
	var nl *norm.Loop
	if f.loop != nil && f.loop.SrcID < len(f.g.Loops) {
		nl = f.g.Loops[f.loop.SrcID]
	}
	return depgraph.Options{
		Oracle:   o,
		NormLoop: nl,
		Env:      f.info.Env,
		VarTypes: f.fi.Vars,
	}
}

// oracleSet returns the three analyses the paper compares.
func (f *fixture) oracleSet() []alias.Oracle {
	return []alias.Oracle{
		alias.NewConservative(f.g),
		alias.NewClassic(f.g, f.info.Env),
		alias.NewGPM(f.g, f.info.Env),
	}
}

func yes(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

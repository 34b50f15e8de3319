// Package validation exposes the paper's Section 5.1.1 abstraction
// validation analysis as a standalone pass: for each program point of a
// function, is the declared ADDS abstraction currently valid, and if not,
// which store broke it and which statement repaired it?
//
// The violation tracking itself lives inside the path matrix transfer
// functions (violations are matrix entries, as the paper prescribes); this
// package runs the analysis and reorganizes the results into per-point
// verdicts and break/repair intervals that tools can report.
package validation

import (
	"fmt"
	"strings"

	"repro/internal/core/pathmatrix"
	"repro/internal/norm"
)

// Interval is one contiguous region of statements where the abstraction is
// broken: from the statement that broke it (inclusive) to the statement
// that repaired it (exclusive), in CFG node-id order.
type Interval struct {
	BrokenBy   *norm.Node // statement whose effect introduced a violation
	RepairedBy *norm.Node // first later statement after which it is valid; nil if never repaired
	Violations []pathmatrix.Violation
}

// String renders the interval.
func (iv *Interval) String() string {
	broke := "?"
	if iv.BrokenBy != nil && iv.BrokenBy.Stmt != nil {
		broke = iv.BrokenBy.Stmt.String()
	}
	fixed := "never repaired"
	if iv.RepairedBy != nil && iv.RepairedBy.Stmt != nil {
		fixed = "repaired by " + iv.RepairedBy.Stmt.String()
	}
	var vs []string
	for _, v := range iv.Violations {
		vs = append(vs, v.String())
	}
	return fmt.Sprintf("broken by %q (%s), %s", broke, strings.Join(vs, " "), fixed)
}

// Result is the validation verdict for one function.
type Result struct {
	Graph *norm.Graph
	PM    *pathmatrix.Result
}

// FromResult wraps an existing path matrix result.
func FromResult(r *pathmatrix.Result) *Result {
	return &Result{Graph: r.Graph, PM: r}
}

// ValidAfter reports whether the abstraction is valid just after node n.
func (r *Result) ValidAfter(n *norm.Node) bool {
	return r.PM.AfterNode(n).Valid()
}

// ValidEverywhere reports whether no statement ever leaves the abstraction
// broken (transformations relying on ADDS facts are safe everywhere).
func (r *Result) ValidEverywhere() bool {
	for _, n := range r.Graph.Nodes {
		if n.Kind == norm.NodeStmt && !r.ValidAfter(n) {
			return false
		}
	}
	return true
}

// ViolationsAfter returns the outstanding violations after node n.
func (r *Result) ViolationsAfter(n *norm.Node) []pathmatrix.Violation {
	return r.PM.AfterNode(n).Violations()
}

// Intervals scans statements in node-id order (source order for
// straight-line code) and reports the broken regions. Inside loops a
// violation raised late in the body flows around the back edge and is
// outstanding at every body point, so the interval's BrokenBy names the
// first body statement rather than the culprit store; the attached
// Violations still identify the offending field and variables.
func (r *Result) Intervals() []*Interval {
	var out []*Interval
	var open *Interval
	for _, n := range r.Graph.Nodes {
		if n.Kind != norm.NodeStmt {
			continue
		}
		valid := r.ValidAfter(n)
		switch {
		case !valid && open == nil:
			open = &Interval{BrokenBy: n, Violations: r.ViolationsAfter(n)}
		case valid && open != nil:
			open.RepairedBy = n
			out = append(out, open)
			open = nil
		}
	}
	if open != nil {
		out = append(out, open)
	}
	return out
}

// Report renders a human-readable summary.
func (r *Result) Report() string {
	var b strings.Builder
	ivs := r.Intervals()
	if len(ivs) == 0 {
		b.WriteString("abstraction valid at every program point\n")
		return b.String()
	}
	for _, iv := range ivs {
		fmt.Fprintf(&b, "%s\n", iv)
	}
	return b.String()
}

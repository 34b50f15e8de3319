package exper

import (
	"context"
	"fmt"

	"repro/internal/alias"
	"repro/internal/alias/klimit"
	"repro/internal/core/pathmatrix"
	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/norm"
	"repro/internal/structures"
	"repro/internal/xform"
)

// E1 reproduces Figure 1's contrast: for the linked-list version of the
// array loop, can the compiler tell that q->data is loop-invariant and that
// iterations touch distinct nodes? With arrays both answers are trivially
// yes; for lists they depend on the alias analysis.
func E1() *Report {
	// The list counterpart of "a[i] = a[i] + b[j]": the invariant operand
	// is the head node's datum, exactly as in the paper's Section 5.1.2
	// loop (two unrelated parameters could legitimately alias, which is why
	// the paper anchors the invariant at the head of the same list).
	src := TwoWayDecl + `
void addlists(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data + hd->data;
        p = p->next;
    }
}
`
	r := &Report{
		ID:    "E1",
		Title: "Figure 1 — arrays vs linked lists",
		Claim: "array codes get both properties for free; list codes need alias analysis, and conservative analysis gets neither",
		Headers: []string{"analysis", "hd->data invariant (hoisted)", "iterations independent",
			"carried mem deps"},
		Notes: []string{
			"the array half of Figure 1 is the trivially-true baseline: a[i] vs a[j] disambiguate by index",
			"'iterations independent' = no loop-carried memory dependences in the dependence graph",
		},
	}
	f := load(src, "addlists")
	for _, o := range f.oracleSet() {
		opt := f.opts(o)
		_, _, hoisted := xform.LICM(f.prog, f.loop, opt)
		dg := depgraph.Build(f.prog, f.loop, opt)
		carried := dg.CarriedMemEdges()
		r.Rows = append(r.Rows, []string{
			o.Name(), yes(len(hoisted) > 0), yes(len(carried) == 0),
			fmt.Sprintf("%d", len(carried)),
		})
	}
	return r
}

// E2 validates the six Section 3 declarations on concrete instances: every
// structure the paper describes builds, and the dynamic encoding of
// Defs 4.2-4.9 finds no violations.
func E2() *Report {
	r := &Report{
		ID:      "E2",
		Title:   "Section 3 declarations hold on concrete structures",
		Claim:   "the six example declarations describe real structures (Defs 4.2-4.10)",
		Headers: []string{"structure", "size", "nodes reachable", "violations"},
	}
	env := structures.Env()
	for _, name := range structures.Names() {
		for _, size := range []int{10, 100, 1000} {
			h := interp.NewHeap()
			roots := buildFixed(h, name, size)
			nodes := interp.Reachable(roots...)
			vs := interp.Check(env, roots...)
			r.Rows = append(r.Rows, []string{
				name, fmt.Sprintf("%d", size),
				fmt.Sprintf("%d", len(nodes)), fmt.Sprintf("%d", len(vs)),
			})
		}
	}
	return r
}

// buildFixed deterministically builds a structure of about the given size.
func buildFixed(h *interp.Heap, name string, size int) []*interp.Node {
	switch name {
	case "TwoWayLL":
		return []*interp.Node{structures.TwoWayList(h, nil, size)}
	case "PBinTree":
		keys := make([]int64, size)
		for i := range keys {
			keys[i] = int64((i * 7919) % (size * 3))
		}
		return []*interp.Node{structures.BinTree(h, keys)}
	case "OrthL":
		side := 1
		for side*side < size {
			side++
		}
		dense := make([][]int64, side)
		for i := range dense {
			dense[i] = make([]int64, side)
			for j := range dense[i] {
				if (i+j)%2 == 0 {
					dense[i][j] = int64(i*side + j + 1)
				}
			}
		}
		m := structures.Orthogonal(h, dense)
		var roots []*interp.Node
		for _, n := range append(append([]*interp.Node{}, m.RowHead...), m.ColHead...) {
			if n != nil {
				roots = append(roots, n)
			}
		}
		return roots
	case "LOLS":
		rows := 1
		for rows*rows < size {
			rows++
		}
		return []*interp.Node{structures.ListOfLists(h, rows, (size+rows-1)/rows)}
	case "TwoDRT":
		pts := make([]structures.Point, size/4+1)
		for i := range pts {
			pts[i] = structures.Point{X: int64(i * 13 % 997), Y: int64(i * 31 % 997)}
		}
		return []*interp.Node{structures.RangeTree(h, pts)}
	case "CirL":
		return []*interp.Node{structures.Circular(h, size)}
	}
	return nil
}

// renderAliasMatrix prints a matrix of oracle answers in the paper's alias
// matrix style.
func renderAliasMatrix(f *fixture, o alias.Oracle, vars []string) string {
	n := f.g.Loops[0].Branch.Succs[0] // inside the loop
	width := 4
	for _, v := range vars {
		if len(v) > width {
			width = len(v)
		}
	}
	cell := func(s string) string { return fmt.Sprintf(" %-*s |", width+2, s) }
	var b []byte
	b = append(b, cell("")...)
	for _, q := range vars {
		b = append(b, cell(q)...)
	}
	b = append(b, '\n')
	for _, p := range vars {
		b = append(b, cell(p)...)
		for _, q := range vars {
			e := ""
			if p == q {
				e = "="
			} else if o.MustAlias(n, p, q) {
				e = "="
			} else if o.MayAlias(n, p, q) {
				e = "=?"
			}
			b = append(b, cell(e)...)
		}
		b = append(b, '\n')
	}
	return string(b)
}

// E3 regenerates the conservative alias matrix of Section 5.1.2: every
// entry between hd and the iterates of p is a possible alias.
func E3() *Report {
	f := load(ShiftSrc, "shift")
	o := alias.NewConservative(f.g)
	r := &Report{
		ID:    "E3",
		Title: "Section 5.1.2 — conservative alias matrix for the shift loop",
		Claim: "all entries denote some form of aliasing (=? everywhere)",
		Figures: []string{
			"Alias matrix AM inside the loop (conservative analysis):\n" +
				renderAliasMatrix(f, o, []string{"hd", "p"}),
		},
		Notes: []string{"matches the paper: AM[hd,p] = =? prevents every loop transformation"},
	}
	inLoop := f.g.Loops[0].Branch.Succs[0]
	r.Headers = []string{"pair", "may alias"}
	r.Rows = append(r.Rows, []string{"hd,p", yes(o.MayAlias(inLoop, "hd", "p"))})
	r.Rows = append(r.Rows, []string{"p_i,p_i+1", yes(o.LoopCarried(f.g.Loops[0], "p", "p"))})
	return r
}

// E4 regenerates the general path matrices of Section 5.1.2: before the
// loop, at the fixed point, and the primed-variable (cross-iteration) view.
func E4() *Report {
	f := load(ShiftSrc, "shift")
	res := pathmatrix.Analyze(f.g, f.info.Env)
	loop := f.g.Loops[0]

	// "Just before the loop": after p = hd->next.
	before := res.AtEntry()
	for _, n := range f.g.Nodes {
		if n.Kind == norm.NodeStmt && n.Stmt != nil && n.Stmt.String() == "p = hd->next" {
			before = res.AfterNode(n)
		}
	}
	fixed := res.LoopHead(loop)
	primed := res.IterationMatrix(loop)

	r := &Report{
		ID:    "E4",
		Title: "Section 5.1.2 — general path matrices (ADDS + GPM)",
		Claim: "PM(hd,p) = next+ at the fixed point; hd, p and p' are never aliases",
		Figures: []string{
			"PM just before the loop (after p = hd->next):\n" + before.String(),
			"PM at the loop fixed point:\n" + fixed.String(),
			"PM with primed (previous-iteration) variables after one body pass:\n" + primed.String(),
		},
		Headers: []string{"query", "result", "paper"},
	}
	r.Rows = append(r.Rows, []string{"PM(hd,p) before loop", before.Entry("hd", "p").String(), "next"})
	r.Rows = append(r.Rows, []string{"PM(hd,p) fixed point", fixed.Entry("hd", "p").String(), "next+"})
	r.Rows = append(r.Rows, []string{"PM(p',p)", primed.Entry("p"+pathmatrix.Shadow, "p").String(), "next"})
	r.Rows = append(r.Rows, []string{"MayAlias(hd,p)", yes(fixed.MayAlias("hd", "p")), "no"})
	r.Rows = append(r.Rows, []string{"abstraction valid", yes(fixed.Valid()), "yes"})
	return r
}

// E5 regenerates Figure 2: the dependence graph of the pseudo-assembly loop
// under conservative analysis (false carried deps S5->S2, S5->S3) and under
// ADDS + GPM (no carried memory deps).
func E5() *Report {
	f := load(ShiftSrc, "shift")
	cons := depgraph.Build(f.prog, f.loop, f.opts(alias.NewConservative(f.g)))
	gpm := depgraph.Build(f.prog, f.loop, f.opts(alias.NewGPM(f.g, f.info.Env)))

	r := &Report{
		ID:    "E5",
		Title: "Figure 2 — dependence graph for the pseudo-assembly loop",
		Claim: "conservative analysis adds false loop-carried deps store->loads; ADDS+GPM removes them",
		Headers: []string{"analysis", "carried mem deps", "S5->S2 (false)",
			"S5->S3 (false)", "S6->S1 on p (real)"},
		Figures: []string{cons.String(), gpm.String()},
	}
	row := func(g *depgraph.Graph) []string {
		return []string{
			g.Oracle,
			fmt.Sprintf("%d", len(g.CarriedMemEdges())),
			yes(g.HasEdge(4, 1, depgraph.Flow, true)),
			yes(g.HasEdge(4, 2, depgraph.Flow, true)),
			yes(g.HasEdge(5, 0, depgraph.Flow, true)),
		}
	}
	r.Rows = append(r.Rows, row(cons), row(gpm))
	r.Notes = append(r.Notes,
		"body numbering is 0-based: S0 test, S1 load p->x, S2 load hd->x, S3 sub, S4 store, S5 advance, S6 goto")
	return r
}

// E8 compares k-limited storage graphs with ADDS+GPM on the build-then-
// traverse program: the k-limit's summary cycle makes the traversal look
// possibly-revisiting for every k, while the declaration proves advance.
func E8() *Report {
	src := TwoWayDecl + `
void buildwalk(int n) {
    TwoWayLL *hd, *p, *tmp;
    hd = NULL;
    while (n > 0) {
        tmp = new TwoWayLL;
        tmp->next = hd;
        if (hd != NULL) {
            hd->prev = tmp;
        }
        hd = tmp;
        n = n - 1;
    }
    p = hd;
    while (p != NULL) {
        p = p->next;
    }
}
`
	f := load(src, "buildwalk")
	traverse := f.g.Loops[1]
	r := &Report{
		ID:    "E8",
		Title: "k-limited graphs vs ADDS+GPM (Section 1.2's criticism)",
		Claim: "k-limited approximation introduces cycles: list-like structures cannot be distinguished from cyclic ones",
		Headers: []string{"analysis", "p may revisit a node (carried p,p)",
			"hd aliases iterate of p"},
	}
	for _, k := range []int{1, 2, 3} {
		o, _ := klimit.Analyze(context.Background(), f.g, f.info.Env, k) // a background context never stops the run
		r.Rows = append(r.Rows, []string{
			o.Name(),
			yes(o.LoopCarried(traverse, "p", "p")),
			yes(o.MayAlias(traverse.Branch.Succs[0], "hd", "p")),
		})
	}
	gpm := alias.NewGPM(f.g, f.info.Env)
	r.Rows = append(r.Rows, []string{
		gpm.Name(),
		yes(gpm.LoopCarried(traverse, "p", "p")),
		yes(gpm.MayAlias(traverse.Branch.Succs[0], "hd", "p")),
	})
	r.Notes = append(r.Notes,
		"hd==p on the first traversal iteration, so 'hd aliases p' is genuinely yes for all analyses;",
		"the k-limited failure is the carried p,p column: it cannot prove the loop advances")
	return r
}

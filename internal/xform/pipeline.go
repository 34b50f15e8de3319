package xform

import (
	"fmt"

	"repro/internal/depgraph"
	"repro/internal/ir"
	"repro/internal/machine"
)

// PipelineInfo summarizes the software-pipelining analysis of a loop.
type PipelineInfo struct {
	BodyOps    int // schedulable operations per iteration (no goto/moves)
	ResMII     int // resource-constrained minimum initiation interval
	RecMII     int // recurrence-constrained minimum initiation interval
	II         int // achieved initiation interval
	Stages     int
	Theoretic  float64 // the paper's "theoretical speedup": BodyOps / II
	CarriedMem []*depgraph.Edge
	OK         bool // a pipelined schedule is legal
}

// AnalyzePipeline computes the initiation-interval bounds for a loop under a
// given alias oracle and machine width. Under conservative aliasing the
// false carried memory dependences drive RecMII up to the body length
// (no overlap, speedup ~1); under ADDS + GPM only the pointer-advance
// recurrence remains and II collapses to 1 — the paper's "theoretical
// speedup of 5" for the five-operation shift loop.
func AnalyzePipeline(p *ir.Program, l *ir.LoopInfo, opt depgraph.Options, width int) PipelineInfo {
	dg := depgraph.Build(p, l, opt)
	body := dg.Body

	// Schedulable ops: exclude the back-edge goto and copies (the paper
	// removes the move by copy propagation during pipelining).
	ops := 0
	for _, in := range body {
		switch in.Op {
		case ir.Goto, ir.Move, ir.Label, ir.Nop:
		default:
			ops++
		}
	}

	info := PipelineInfo{BodyOps: ops}
	if width < 1 {
		width = 1
	}
	info.ResMII = (ops + width - 1) / width
	info.CarriedMem = dg.CarriedMemEdges()

	// Longest intra-iteration dependence path between body instructions,
	// weighted by producer latency: real operations take a cycle, copies
	// are free (the paper's copy propagation removes them; the kernel's
	// shift moves are free under VLIW read-before-write semantics), and
	// anti/output edges only impose ordering.
	latency := func(i int) int {
		switch body[i].Op {
		case ir.Move, ir.Goto, ir.Label, ir.Nop:
			return 0
		default:
			return 1
		}
	}
	weight := func(e *depgraph.Edge) int {
		if e.Kind != depgraph.Flow {
			return 0
		}
		return latency(e.From)
	}
	n := len(body)
	lp := make([][]int, n)
	for i := range lp {
		lp[i] = make([]int, n)
		for j := range lp[i] {
			lp[i][j] = -1
		}
		lp[i][i] = 0
	}
	// Relax in index order; intra edges always go forward (From < To).
	// Only flow edges participate: anti and output dependences are renamed
	// away by modulo variable expansion (the emitter's shift registers),
	// exactly as the paper's overlapping kernel assumes.
	for from := 0; from < n; from++ {
		for _, e := range dg.Edges {
			if e.Carried || e.Kind != depgraph.Flow || e.From != from {
				continue
			}
			for src := 0; src <= from; src++ {
				if lp[src][from] >= 0 && lp[src][from]+weight(e) > lp[src][e.To] {
					lp[src][e.To] = lp[src][from] + weight(e)
				}
			}
		}
	}

	info.RecMII = 1 // the advance recurrence itself
	for _, e := range dg.Edges {
		if !e.Carried || e.Kind != depgraph.Flow {
			continue
		}
		cycle := weight(e)
		if e.To <= e.From && lp[e.To][e.From] > 0 {
			cycle += lp[e.To][e.From]
		}
		if cycle > info.RecMII {
			info.RecMII = cycle
		}
	}

	info.II = info.ResMII
	if info.RecMII > info.II {
		info.II = info.RecMII
	}
	if info.II < 1 {
		info.II = 1
	}
	info.Stages = (ops + info.II - 1) / info.II
	info.Theoretic = float64(ops) / float64(info.II)
	info.OK = len(info.CarriedMem) == 0
	return info
}

// listPattern is the recognized shape of a pipelinable list-traversal loop:
//
//	loop:  if v == NULL goto exit
//	       [load v->df, r1]          (optional: chain-1 form)
//	       [op r1, inv, r3]          (optional, with the load)
//	       store r3|inv, v->sf
//	       load v->adv, v            (the advance)
//	       goto loop
//
// plus any number of loop-invariant loads, which the emitter hoists.
type listPattern struct {
	v       string      // traversal pointer
	adv     string      // advance field
	hoisted []*ir.Instr // invariant loads moved to the preheader
	load    *ir.Instr   // compute load (nil for chain-0)
	arith   *ir.Instr   // single arithmetic op (nil for chain-0)
	store   *ir.Instr
}

// matchListLoop classifies the loop body, or returns an error describing
// why it does not fit.
func matchListLoop(p *ir.Program, l *ir.LoopInfo) (*listPattern, error) {
	body := p.Instrs[l.TestStart : l.BodyEnd+1]
	if len(body) < 3 {
		return nil, fmt.Errorf("body too small")
	}
	br := body[0]
	if br.Op != ir.Br || br.Rel != ir.EQ || br.Src2 != "" || br.Target != l.ExitLabel {
		return nil, fmt.Errorf("loop does not start with a NULL exit test")
	}
	pat := &listPattern{v: br.Src1}

	defined := map[string]bool{}
	for _, in := range body {
		if d := in.Defs(); d != "" {
			defined[d] = true
		}
	}

	for _, in := range body[1:] {
		switch in.Op {
		case ir.Goto:
			if in.Target != l.HeadLabel {
				return nil, fmt.Errorf("unexpected goto %s", in.Target)
			}
		case ir.Load:
			switch {
			case in.Dst == in.Src1 && in.Src1 == pat.v:
				if pat.adv != "" {
					return nil, fmt.Errorf("multiple advances")
				}
				pat.adv = in.Field
			case in.Src1 == pat.v:
				if pat.load != nil {
					return nil, fmt.Errorf("more than one compute load")
				}
				pat.load = in
			case !defined[in.Src1]:
				pat.hoisted = append(pat.hoisted, in)
			default:
				return nil, fmt.Errorf("load from computed pointer %s", in.Src1)
			}
		case ir.LoadImm:
			// Constant setup (e.g. "li 0, R4" feeding the store) is
			// loop-invariant by construction; hoist it.
			pat.hoisted = append(pat.hoisted, in)
		case ir.Store:
			if in.Src1 != pat.v {
				return nil, fmt.Errorf("store through %s, not the traversal pointer", in.Src1)
			}
			if pat.store != nil {
				return nil, fmt.Errorf("more than one store")
			}
			pat.store = in
		case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem:
			if pat.arith != nil {
				return nil, fmt.Errorf("more than one arithmetic op")
			}
			pat.arith = in
		case ir.Br:
			return nil, fmt.Errorf("internal control flow")
		default:
			return nil, fmt.Errorf("unsupported op %s", in.Op)
		}
	}
	if pat.adv == "" {
		return nil, fmt.Errorf("no pointer advance")
	}
	if pat.store == nil {
		return nil, fmt.Errorf("no store (nothing to pipeline)")
	}
	if (pat.load == nil) != (pat.arith == nil) {
		return nil, fmt.Errorf("compute load and arithmetic must appear together")
	}
	if pat.arith != nil {
		usesLoad := pat.arith.Src1 == pat.load.Dst || pat.arith.Src2 == pat.load.Dst
		if !usesLoad || pat.store.Src2 != pat.arith.Dst {
			return nil, fmt.Errorf("compute chain does not flow load -> op -> store")
		}
		if (pat.arith.Op == ir.Div || pat.arith.Op == ir.Rem) && pat.arith.Src2 == pat.load.Dst {
			// The pipeline executes the op speculatively on the drained
			// iteration with a zero operand — a division would fault.
			return nil, fmt.Errorf("division by a loaded value cannot be speculated")
		}
	}
	return pat, nil
}

// Pipelined is an emitted software-pipelined loop.
type Pipelined struct {
	Prog *machine.VLIWProgram
	Info PipelineInfo
	// KernelOps is the kernel bundle width actually needed.
	KernelOps int
}

// EmitPipelined software-pipelines a list-traversal loop for a VLIW of the
// given width, following Section 5.2 exactly: invariant loads hoist to the
// preheader, the advance is renamed and speculatively hoisted (legal by
// Def 4.1), and the body folds into a one-cycle kernel whose shift copies
// are free under VLIW read-before-write semantics. Emission refuses when
// the alias oracle reports carried memory dependences (conservative
// analysis) or an invalid abstraction — reproducing the paper's claim that
// the transformation is enabled by ADDS + GPM.
func EmitPipelined(p *ir.Program, l *ir.LoopInfo, opt depgraph.Options, width int) (*Pipelined, error) {
	// Analyze the loop as it will actually be scheduled: with invariant
	// loads hoisted (the paper counts five body operations after hoisting
	// hd->x).
	hp, hl, _ := LICM(p, l, opt)
	info := AnalyzePipeline(hp, hl, opt, width)
	if !info.OK {
		return nil, fmt.Errorf("pipelining blocked by %d carried memory dependences under oracle %q",
			len(info.CarriedMem), opt.Oracle.Name())
	}
	pat, err := matchListLoop(p, l)
	if err != nil {
		return nil, fmt.Errorf("loop shape: %v", err)
	}

	v := pat.v
	v1, v2 := v+"$1", v+"$2"
	chain1 := pat.load != nil

	kernelOps := 5 // br, store, advance, shift, goto
	if chain1 {
		kernelOps = 8 // br, load, arith, store, advance, 2 shifts, goto
	}
	if width < kernelOps {
		return nil, fmt.Errorf("width %d below kernel size %d", width, kernelOps)
	}

	out := machine.NewVLIWProgram(width)
	// Preamble: everything before the loop head, sequentially.
	headIdx := p.FindLabel(l.HeadLabel)
	for _, in := range p.Instrs[:headIdx] {
		if in.Op == ir.Label {
			out.Mark(in.Name)
			continue
		}
		out.MustAdd(machine.Bundle{in.Clone()})
	}
	// Hoisted invariant loads.
	for _, in := range pat.hoisted {
		out.MustAdd(machine.Bundle{in.Clone()})
	}

	advance := &ir.Instr{Op: ir.Load, Dst: v, Src1: v, Field: pat.adv}
	exitBr := func(target string) *ir.Instr {
		return &ir.Instr{Op: ir.Br, Rel: ir.EQ, Src1: v, Src2: "", Target: target}
	}
	shift1 := &ir.Instr{Op: ir.Move, Src1: v, Dst: v1}
	shift2 := &ir.Instr{Op: ir.Move, Src1: v1, Dst: v2}

	if chain1 {
		// Prologue P1: start iteration A (no arith result yet, no store).
		out.MustAdd(machine.Bundle{
			exitBr(l.ExitLabel),
			pat.load.Clone(),
			advance.Clone(),
			shift1.Clone(),
		})
		// Prologue P2: start B, compute A's result.
		out.MustAdd(machine.Bundle{
			exitBr("drain$" + l.HeadLabel),
			pat.load.Clone(),
			pat.arith.Clone(),
			advance.Clone(),
			shift1.Clone(),
			shift2.Clone(),
		})
		// Kernel: one bundle, one iteration per cycle.
		out.Mark("kernel$" + l.HeadLabel)
		st := pat.store.Clone()
		st.Src1 = v2
		out.MustAdd(machine.Bundle{
			exitBr("drain$" + l.HeadLabel),
			pat.load.Clone(),
			pat.arith.Clone(),
			st,
			advance.Clone(),
			shift1.Clone(),
			shift2.Clone(),
			&ir.Instr{Op: ir.Goto, Target: "kernel$" + l.HeadLabel},
		})
		// Drain: one iteration still in flight (pointer in v2, result in
		// the arith destination).
		out.Mark("drain$" + l.HeadLabel)
		dst := pat.store.Clone()
		dst.Src1 = v2
		out.MustAdd(machine.Bundle{
			&ir.Instr{Op: ir.Br, Rel: ir.EQ, Src1: v2, Src2: "", Target: l.ExitLabel},
		})
		out.MustAdd(machine.Bundle{dst})
	} else {
		// Chain-0 (e.g. list initialization): store lags one stage.
		out.MustAdd(machine.Bundle{ // prologue: start A
			exitBr(l.ExitLabel),
			advance.Clone(),
			shift1.Clone(),
		})
		out.Mark("kernel$" + l.HeadLabel)
		st := pat.store.Clone()
		st.Src1 = v1
		out.MustAdd(machine.Bundle{
			exitBr(l.ExitLabel),
			st,
			advance.Clone(),
			shift1.Clone(),
			&ir.Instr{Op: ir.Goto, Target: "kernel$" + l.HeadLabel},
		})
	}

	// Postamble: everything after the loop's exit label.
	exitIdx := p.FindLabel(l.ExitLabel)
	out.Mark(l.ExitLabel)
	for _, in := range p.Instrs[exitIdx+1:] {
		if in.Op == ir.Label {
			out.Mark(in.Name)
			continue
		}
		out.MustAdd(machine.Bundle{in.Clone()})
	}

	return &Pipelined{Prog: out, Info: info, KernelOps: kernelOps}, nil
}

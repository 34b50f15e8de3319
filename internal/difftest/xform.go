package difftest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/alias"
	"repro/internal/depgraph"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/norm"
	"repro/internal/source/types"
	"repro/internal/structures"
	"repro/internal/xform"
)

// XformCheck is check 3: observational equivalence of the original
// function against every GPM-enabled transformation of each of its loops —
// Unroll (k=2, 3) on the scalar machine, LICM and software pipelining on
// the VLIW machine (hoisted loads are speculative, the paper's Section 3.2
// model, so they may execute when the loop body never would).
//
// For every size the check builds two identical fresh heaps from the same
// sub-seed, runs original and transformed to completion, and compares the
// final heap signatures. It returns sorted human-readable divergence
// details, or nil when every variant agrees. Functions the machine model
// cannot execute (calls, no loops, unbuildable parameter structures) are
// skipped, not failed — the check only compares what both sides can run.
//
// It is exported (rather than private to checkXform) so the examples
// equivalence test can aim the same check at every shipped example.
func XformCheck(info *types.Info, fn string, seed int64, sizes []int) []string {
	fi := info.Func(fn)
	if fi == nil {
		return nil
	}
	prog := ir.Build(fi, info.Env)
	for _, in := range prog.Instrs {
		if in.Op == ir.Call {
			return nil // the machine model has no call support
		}
	}
	if len(prog.Loops) == 0 {
		return nil
	}
	if len(sizes) == 0 {
		sizes = []int{1, 2, 5, 9}
	}
	g := norm.Build(fi, info.Env)
	oracle := alias.NewGPM(g, info.Env)

	var details []string
	diverge := func(format string, args ...interface{}) {
		details = append(details, "xform: "+fmt.Sprintf(format, args...))
	}

	// compare runs baseline and variant on identical fresh heaps for every
	// size and reports the first disagreement per (variant, size).
	type runner func(h *interp.Heap, args map[string]machine.Word) (*interp.Heap, error)
	compare := func(what string, base, variant runner) {
		for _, size := range sizes {
			bh, berr := runOn(base, fi, info, seed, size)
			if berr != nil {
				continue // baseline cannot run this input: nothing to compare
			}
			vh, verr := runOn(variant, fi, info, seed, size)
			if verr != nil {
				diverge("%s: size %d: transformed run failed where original succeeded: %v",
					what, size, verr)
				return
			}
			if bs, vs := heapSig(bh), heapSig(vh); bs != vs {
				diverge("%s: size %d: final heaps differ\n--- original\n%s\n--- transformed\n%s",
					what, size, bs, vs)
				return
			}
		}
	}

	scalar := func(p *ir.Program) runner {
		return func(h *interp.Heap, args map[string]machine.Word) (*interp.Heap, error) {
			_, err := machine.RunScalar(p, machine.DefaultScalar(), h, args)
			return h, err
		}
	}
	vliw := func(p *machine.VLIWProgram) runner {
		return func(h *interp.Heap, args map[string]machine.Word) (*interp.Heap, error) {
			_, err := machine.RunVLIW(p, machine.DefaultVLIW(), h, args)
			return h, err
		}
	}

	for li, l := range prog.Loops {
		if l.SrcID < 0 || l.SrcID >= len(g.Loops) {
			continue
		}
		opt := depgraph.Options{
			Oracle:   oracle,
			NormLoop: g.Loops[l.SrcID],
			Env:      info.Env,
			VarTypes: fi.Vars,
		}
		for _, k := range []int{2, 3} {
			un, err := xform.Unroll(prog, l, k, opt)
			if err != nil {
				continue
			}
			compare(fmt.Sprintf("loop %d unroll k=%d", li, k), scalar(prog), scalar(un))
		}
		if hoisted, _, moved := xform.LICM(prog, l, opt); len(moved) > 0 {
			compare(fmt.Sprintf("loop %d licm", li),
				vliw(machine.Sequentialize(prog)), vliw(machine.Sequentialize(hoisted)))
		}
		if pl, err := xform.EmitPipelined(prog, l, opt, 8); err == nil {
			compare(fmt.Sprintf("loop %d pipeline", li),
				vliw(machine.Sequentialize(prog)), vliw(pl.Prog))
		}
	}
	sort.Strings(details)
	return details
}

// runOn builds the deterministic input heap for (seed, size), binds one
// argument per parameter (a random well-formed structure for pointers, the
// size for ints), and invokes the runner. A parameter structure the
// builder cannot produce skips the run.
func runOn(run func(*interp.Heap, map[string]machine.Word) (*interp.Heap, error),
	fi *types.FuncInfo, info *types.Info, seed int64, size int) (*interp.Heap, error) {
	h := interp.NewHeap()
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(size)))
	args := map[string]machine.Word{}
	for _, p := range fi.Decl.Params {
		switch t := fi.Vars[p.Name]; t.Kind {
		case types.KindPointer:
			roots, err := structures.Random(h, rng, t.Record, size)
			if err != nil || len(roots) == 0 {
				return nil, errSkip
			}
			args[p.Name] = machine.RefWord(roots[0])
		case types.KindInt:
			args[p.Name] = machine.IntWord(int64(size))
		}
	}
	return run(h, args)
}

var errSkip = fmt.Errorf("input structure not buildable")

// heapSig renders a canonical signature of a heap: every live node in
// allocation order, with only non-zero int fields and non-nil pointer
// fields (the machine reads absent fields as zero/NULL, so a written NULL
// and a never-written field must collapse to the same signature).
func heapSig(h *interp.Heap) string {
	nodes := h.Live()
	idx := make(map[*interp.Node]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	var b strings.Builder
	for i, n := range nodes {
		fmt.Fprintf(&b, "#%d:%s{", i, n.Type)
		var fields []string
		for f, v := range n.Ints {
			if v != 0 {
				fields = append(fields, fmt.Sprintf("%s=%d", f, v))
			}
		}
		for f, t := range n.Ptrs {
			if t != nil {
				ti, ok := idx[t]
				if !ok {
					ti = -1 // a dangling reference to a freed node
				}
				fields = append(fields, fmt.Sprintf("%s=#%d", f, ti))
			}
		}
		sort.Strings(fields)
		b.WriteString(strings.Join(fields, " "))
		b.WriteString("}\n")
	}
	return b.String()
}

// checkXform adapts XformCheck to the check interface.
func checkXform(s Subject, cfg Config) string {
	if details := XformCheck(s.Unit.Info, s.Entry, s.Seed, nil); len(details) > 0 {
		return details[0]
	}
	return ""
}

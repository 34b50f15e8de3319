// Package machine provides the execution substrates for the paper's
// performance claims: a scalar in-order machine (MIPS-like, with a load-use
// delay and a taken-branch penalty) for the [HG92] unrolling experiment, and
// a W-wide VLIW for the Section 5.2 software-pipelining experiment. Both
// execute the pseudo-assembly IR over concrete heap nodes, so speedups are
// measured, not asserted.
package machine

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/ir"
)

// Word is a register value: an integer or a node reference.
type Word struct {
	IsRef bool
	Int   int64
	Ref   *interp.Node
}

// IntWord and RefWord construct register values.
func IntWord(v int64) Word        { return Word{Int: v} }
func RefWord(n *interp.Node) Word { return Word{IsRef: true, Ref: n} }

// Null is the NULL reference.
var Null = Word{IsRef: true}

// String renders the word.
func (w Word) String() string {
	if w.IsRef {
		return w.Ref.String()
	}
	return fmt.Sprintf("%d", w.Int)
}

// Fault is a machine execution error.
type Fault struct {
	PC  int
	Msg string
}

func (f *Fault) Error() string { return fmt.Sprintf("pc %d: %s", f.PC, f.Msg) }

// Result reports an execution.
type Result struct {
	Cycles int64
	Instrs int64
	Stalls int64
	Regs   map[string]Word
	Ret    Word
}

// ScalarConfig parameterizes the scalar machine.
type ScalarConfig struct {
	LoadLatency   int // cycles until a loaded value is usable (>= 1)
	BranchPenalty int // extra cycles for a taken branch
	MaxCycles     int64
}

// DefaultScalar models a simple pipelined RISC: loads usable after one
// delay cycle, taken branches cost one bubble.
func DefaultScalar() ScalarConfig {
	return ScalarConfig{LoadLatency: 2, BranchPenalty: 1, MaxCycles: 1 << 26}
}

// evalRel applies a branch/set relation.
func evalRel(r ir.Rel, a, b Word) bool {
	if a.IsRef || b.IsRef {
		switch r {
		case ir.EQ:
			return a.Ref == b.Ref
		case ir.NE:
			return a.Ref != b.Ref
		}
		return false
	}
	switch r {
	case ir.EQ:
		return a.Int == b.Int
	case ir.NE:
		return a.Int != b.Int
	case ir.LT:
		return a.Int < b.Int
	case ir.LE:
		return a.Int <= b.Int
	case ir.GT:
		return a.Int > b.Int
	case ir.GE:
		return a.Int >= b.Int
	}
	return false
}

// scalar is the in-order machine state.
type scalar struct {
	cfg   ScalarConfig
	heap  *interp.Heap
	regs  map[string]Word
	ready map[string]int64 // cycle at which a register's value is usable
	now   int64
	res   Result
}

// RunScalar executes the program on the scalar machine. args seeds the
// parameter registers; heap provides the nodes the references point into.
func RunScalar(p *ir.Program, cfg ScalarConfig, heap *interp.Heap, args map[string]Word) (*Result, error) {
	m := &scalar{
		cfg:   cfg,
		heap:  heap,
		regs:  map[string]Word{},
		ready: map[string]int64{},
	}
	for k, v := range args {
		m.regs[k] = v
	}
	labels := map[string]int{}
	for i, in := range p.Instrs {
		if in.Op == ir.Label {
			labels[in.Name] = i
		}
	}

	pc := 0
	for pc < len(p.Instrs) {
		if m.cfg.MaxCycles > 0 && m.now > m.cfg.MaxCycles {
			return nil, &Fault{PC: pc, Msg: "cycle budget exhausted"}
		}
		in := p.Instrs[pc]
		if in.Op == ir.Label || in.Op == ir.Nop {
			pc++
			continue
		}
		// Stall until every used register is ready.
		issue := m.now
		for _, u := range in.Uses() {
			if r := m.ready[u]; r > issue {
				issue = r
			}
		}
		m.res.Stalls += issue - m.now
		m.now = issue + 1
		m.res.Instrs++

		jump, done, err := m.exec(in, pc, issue)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		if jump != "" {
			t, ok := labels[jump]
			if !ok {
				return nil, &Fault{PC: pc, Msg: "undefined label " + jump}
			}
			m.now += int64(m.cfg.BranchPenalty)
			pc = t
			continue
		}
		pc++
	}
	m.res.Cycles = m.now
	m.res.Regs = m.regs
	return &m.res, nil
}

func (m *scalar) get(r string) Word {
	if r == "" {
		return Null
	}
	return m.regs[r]
}

// exec performs one instruction; returns a jump label, a done flag, or an
// error.
func (m *scalar) exec(in *ir.Instr, pc int, issue int64) (string, bool, error) {
	switch in.Op {
	case ir.Goto:
		return in.Target, false, nil
	case ir.Br:
		if evalRel(in.Rel, m.get(in.Src1), m.get(in.Src2)) {
			return in.Target, false, nil
		}
		return "", false, nil
	case ir.Load:
		base := m.get(in.Src1)
		if !base.IsRef || base.Ref == nil {
			return "", false, &Fault{PC: pc, Msg: "load through NULL: " + in.String()}
		}
		m.regs[in.Dst] = readField(base.Ref, in.Field)
		m.ready[in.Dst] = issue + int64(m.cfg.LoadLatency)
		return "", false, nil
	case ir.Store:
		base := m.get(in.Src1)
		if !base.IsRef || base.Ref == nil {
			return "", false, &Fault{PC: pc, Msg: "store through NULL: " + in.String()}
		}
		writeField(base.Ref, in.Field, m.get(in.Src2))
		return "", false, nil
	case ir.LoadImm:
		m.regs[in.Dst] = IntWord(in.Imm)
	case ir.Move:
		m.regs[in.Dst] = m.get(in.Src1)
	case ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem:
		a, b := m.get(in.Src1), m.get(in.Src2)
		v, err := arith(in.Op, a, b, pc)
		if err != nil {
			return "", false, err
		}
		m.regs[in.Dst] = v
	case ir.Neg:
		m.regs[in.Dst] = IntWord(-m.get(in.Src1).Int)
	case ir.Set:
		if evalRel(in.Rel, m.get(in.Src1), m.get(in.Src2)) {
			m.regs[in.Dst] = IntWord(1)
		} else {
			m.regs[in.Dst] = IntWord(0)
		}
	case ir.New:
		m.regs[in.Dst] = RefWord(m.heap.New(in.TypeName))
	case ir.FreeOp:
		v := m.get(in.Src1)
		if v.Ref != nil {
			m.heap.Free(v.Ref)
		}
	case ir.Call:
		return "", false, &Fault{PC: pc, Msg: "call not supported by the machine model"}
	case ir.Ret:
		m.res.Ret = m.get(in.Src1)
		return "", true, nil
	}
	return "", false, nil
}

func arith(op ir.Op, a, b Word, pc int) (Word, error) {
	switch op {
	case ir.Add:
		return IntWord(a.Int + b.Int), nil
	case ir.Sub:
		return IntWord(a.Int - b.Int), nil
	case ir.Mul:
		return IntWord(a.Int * b.Int), nil
	case ir.Div:
		if b.Int == 0 {
			return Word{}, &Fault{PC: pc, Msg: "division by zero"}
		}
		return IntWord(a.Int / b.Int), nil
	case ir.Rem:
		if b.Int == 0 {
			return Word{}, &Fault{PC: pc, Msg: "modulo by zero"}
		}
		return IntWord(a.Int % b.Int), nil
	}
	return Word{}, &Fault{PC: pc, Msg: "bad arith"}
}

// readField reads a node field as a Word: pointer fields give references,
// int fields integers, unwritten fields NULL/0.
func readField(n *interp.Node, field string) Word {
	if v, ok := n.Ints[field]; ok {
		return IntWord(v)
	}
	if p, ok := n.Ptrs[field]; ok {
		return RefWord(p)
	}
	// Unwritten: the consumer decides by usage; a NULL reference behaves as
	// zero in arithmetic contexts too.
	return Null
}

func writeField(n *interp.Node, field string, v Word) {
	if v.IsRef {
		n.Ptrs[field] = v.Ref
	} else {
		n.Ints[field] = v.Int
	}
}

// Package ir defines the pseudo-assembly intermediate representation the
// paper uses in Section 5.2 (the S1..S7 loop), a code generator from mini
// ASTs, and loop metadata. The dependence-graph builder, the loop
// transformations and the machine simulators all operate on this IR.
//
// Registers are named: source-level variables keep their names (p, hd), and
// generated temporaries are R1, R2, ... Values are 64-bit integers or node
// references; the machine package gives them meaning.
package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is an instruction opcode.
type Op int

// Opcodes. Load and Store move values between registers and node fields.
const (
	Nop Op = iota
	Label
	Goto  // goto Target
	Br    // if Src1 Rel Src2 goto Target (Src2 "" compares against NULL/0)
	Load  // Dst = [Src1.Field]
	Store // [Src1.Field] = Src2 (Src2 "" stores NULL)
	LoadImm
	Move // Dst = Src1
	Add  // Dst = Src1 + Src2
	Sub
	Mul
	Div
	Rem
	Neg // Dst = -Src1
	Set // Dst = (Src1 Rel Src2) as 0/1
	New // Dst = new TypeName
	FreeOp
	Call // opaque call (not pipelined)
	Ret
)

var opNames = map[Op]string{
	Nop: "nop", Label: "label", Goto: "goto", Br: "br", Load: "load",
	Store: "store", LoadImm: "li", Move: "move", Add: "add", Sub: "sub",
	Mul: "mul", Div: "div", Rem: "rem", Neg: "neg", Set: "set", New: "new",
	FreeOp: "free", Call: "call", Ret: "ret",
}

// String returns the mnemonic.
func (o Op) String() string { return opNames[o] }

// Rel is a comparison relation for Br and Set.
type Rel int

// Relations.
const (
	EQ Rel = iota
	NE
	LT
	LE
	GT
	GE
)

var relNames = map[Rel]string{EQ: "==", NE: "!=", LT: "<", LE: "<=", GT: ">", GE: ">="}

// String returns the source spelling.
func (r Rel) String() string { return relNames[r] }

// Negate returns the complementary relation.
func (r Rel) Negate() Rel {
	switch r {
	case EQ:
		return NE
	case NE:
		return EQ
	case LT:
		return GE
	case LE:
		return GT
	case GT:
		return LE
	}
	return LT
}

// Instr is one pseudo-assembly instruction.
type Instr struct {
	Op       Op
	Dst      string
	Src1     string
	Src2     string
	Field    string // Load/Store
	TypeName string // New, and record type of Src1 for Load/Store
	Imm      int64  // LoadImm
	Rel      Rel    // Br, Set
	Target   string // Goto, Br; Label name for Label
	Name     string // label name (Label), function name (Call)
}

// Clone returns a copy of the instruction.
func (i *Instr) Clone() *Instr {
	c := *i
	return &c
}

// Defs returns the register the instruction writes, or "".
func (i *Instr) Defs() string {
	switch i.Op {
	case Load, LoadImm, Move, Add, Sub, Mul, Div, Rem, Neg, Set, New:
		return i.Dst
	}
	return ""
}

// Uses returns the registers the instruction reads.
func (i *Instr) Uses() []string {
	var out []string
	add := func(r string) {
		if r != "" {
			out = append(out, r)
		}
	}
	switch i.Op {
	case Load:
		add(i.Src1)
	case Store:
		add(i.Src1)
		add(i.Src2)
	case Move, Neg:
		add(i.Src1)
	case Add, Sub, Mul, Div, Rem, Set:
		add(i.Src1)
		add(i.Src2)
	case Br:
		add(i.Src1)
		add(i.Src2)
	case FreeOp, Ret:
		add(i.Src1)
	}
	return out
}

// IsMem reports whether the instruction accesses the heap.
func (i *Instr) IsMem() bool { return i.Op == Load || i.Op == Store }

// String renders the instruction in the paper's style.
func (i *Instr) String() string {
	var buf [64]byte
	return string(i.AppendTo(buf[:0]))
}

// AppendTo appends the instruction's String form to dst.
func (i *Instr) AppendTo(dst []byte) []byte {
	cat := func(parts ...string) []byte {
		for _, p := range parts {
			dst = append(dst, p...)
		}
		return dst
	}
	rhs := i.Src2 // Br, Store and Set spell an empty Src2 as NULL
	if rhs == "" {
		rhs = "NULL"
	}
	switch i.Op {
	case Nop:
		return cat("nop")
	case Label:
		return cat(i.Name, ":")
	case Goto:
		return cat("goto ", i.Target)
	case Br:
		return cat("if ", i.Src1, " ", i.Rel.String(), " ", rhs, " goto ", i.Target)
	case Load:
		return cat("load ", i.Src1, "->", i.Field, ", ", i.Dst)
	case Store:
		return cat("store ", rhs, ", ", i.Src1, "->", i.Field)
	case LoadImm:
		dst = strconv.AppendInt(append(dst, "li "...), i.Imm, 10)
		return cat(", ", i.Dst)
	case Move:
		return cat("move ", i.Src1, ", ", i.Dst)
	case Add, Sub, Mul, Div, Rem:
		return cat(i.Op.String(), " ", i.Src1, ", ", i.Src2, ", ", i.Dst)
	case Neg:
		return cat("neg ", i.Src1, ", ", i.Dst)
	case Set:
		return cat("set", i.Rel.String(), " ", i.Src1, ", ", rhs, ", ", i.Dst)
	case New:
		return cat("new ", i.TypeName, ", ", i.Dst)
	case FreeOp:
		return cat("free ", i.Src1)
	case Call:
		return cat("call ", i.Name)
	case Ret:
		if i.Src1 != "" {
			return cat("ret ", i.Src1)
		}
		return cat("ret")
	}
	return cat("?")
}

// LoopInfo describes one while loop in a Program: instruction index ranges
// for its test and body.
type LoopInfo struct {
	HeadLabel string // target of the back edge
	ExitLabel string
	// TestStart..BodyEnd are indices into Program.Instrs:
	// [TestStart, BodyStart) is the condition test, [BodyStart, BodyEnd) the
	// body, with the back-edge goto at BodyEnd (exclusive of it).
	TestStart int
	BodyStart int
	BodyEnd   int
	SrcID     int // order of the source while statement (matches norm loop order)
}

// Program is a linear instruction sequence for one function.
type Program struct {
	Name   string
	Instrs []*Instr
	Loops  []*LoopInfo
	Params []string // parameter register names, in order
}

// String renders the program with instruction numbers S0, S1, ...
func (p *Program) String() string {
	var b strings.Builder
	for idx, in := range p.Instrs {
		if in.Op == Label {
			fmt.Fprintf(&b, "%s\n", in)
			continue
		}
		fmt.Fprintf(&b, "S%-3d %s\n", idx, in)
	}
	return b.String()
}

// FindLabel returns the index of a label instruction.
func (p *Program) FindLabel(name string) int {
	for i, in := range p.Instrs {
		if in.Op == Label && in.Name == name {
			return i
		}
	}
	return -1
}

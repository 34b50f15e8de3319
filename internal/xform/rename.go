package xform

import (
	"repro/internal/ir"
)

// FindAdvance returns the body-relative index of the loop's pointer-advance
// instruction ("load v->f, v") and the variable/field, or ok=false.
func FindAdvance(p *ir.Program, l *ir.LoopInfo) (idx int, v, field string, ok bool) {
	body := p.Instrs[l.TestStart : l.BodyEnd+1]
	for i, in := range body {
		if in.Op == ir.Load && in.Dst == in.Src1 {
			return i, in.Dst, in.Field, true
		}
	}
	return 0, "", "", false
}

// RenameAdvance performs the paper's first pipelining step: the advance
// "S6 load p->next, p" at the end of the body becomes an early
// "S1.6 load p->next, p'" placed right after the exit test, with a copy
// "S6 move p', p" in its old position. This shrinks the critical recurrence
// from the whole body to the single early load.
//
// Returns the transformed program, refreshed loop info, and the new
// register's name; ok=false when the loop has no advance.
func RenameAdvance(p *ir.Program, l *ir.LoopInfo) (*ir.Program, *ir.LoopInfo, string, bool) {
	out := cloneProgram(p)
	loop := out.Loops[l.SrcID]
	idx, v, field, ok := FindAdvance(out, loop)
	if !ok {
		return p, l, "", false
	}
	primed := v + "'"
	abs := loop.TestStart + idx
	typeName := out.Instrs[abs].TypeName
	// Replace the advance with the copy.
	out.Instrs[abs] = &ir.Instr{Op: ir.Move, Src1: primed, Dst: v}
	// Insert the renamed load right after the exit test (body start).
	insertAt(out, loop.BodyStart, &ir.Instr{
		Op: ir.Load, Dst: primed, Src1: v, Field: field, TypeName: typeName,
	})
	return out, loop, primed, true
}

// SpeculativeHoist performs the paper's second step: because every ADDS
// structure is speculatively traversable (Def 4.1 — traversing past NULL is
// safe), the renamed advance load may move above the exit test, exposing the
// next iteration's load before the current one finishes. The caller must
// target a machine with non-faulting loads (machine.VLIWConfig
// SpeculativeLoads) — the hoisted load executes with a possibly-NULL base.
//
// It moves a "load v->f, v2" (v2 != v) found at the body start to just
// before the loop's exit test. ok=false if the pattern is absent.
func SpeculativeHoist(p *ir.Program, l *ir.LoopInfo) (*ir.Program, *ir.LoopInfo, bool) {
	out := cloneProgram(p)
	loop := out.Loops[l.SrcID]
	if loop.BodyStart >= len(out.Instrs) {
		return p, l, false
	}
	in := out.Instrs[loop.BodyStart]
	if in.Op != ir.Load || in.Dst == in.Src1 {
		return p, l, false
	}
	instr := removeAt(out, loop.BodyStart)
	insertAt(out, loop.TestStart, instr)
	return out, loop, true
}

package pathmatrix

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Matrix is a path matrix at one program point: relations between every
// ordered pair of live pointer variables, plus the set of currently
// outstanding abstraction violations. Alias relations (RelAlias, RelTop) are
// stored symmetrically in both cells; path relations are directional.
//
// Matrices are copy-on-write: Clone is O(1) and shares the cell and
// violation maps with the original. The first structural write after a
// Clone copies the shared map shallowly (entries still shared), and an
// individual Entry is cloned only when it is about to be mutated. All
// mutation therefore goes through set/addRel/addViolation/deleteViolation,
// which maintain the sharing flags and the per-entry ownership marks.
type Matrix struct {
	vars  []string // display order
	cells map[[2]string]Entry
	viols map[Violation]bool

	sharedCells bool // cells map may be referenced by another matrix
	sharedViols bool // viols map may be referenced by another matrix
	// owned marks entries this matrix created after the last map copy and
	// may therefore mutate in place. nil means no entry is owned.
	owned map[[2]string]bool
}

// matrixPool recycles Matrix headers, and cellsPool their cell maps, across
// the millions of intermediate states a fixed-point run creates. Only
// provably private objects are ever returned (see release). matrixPool has
// no New: a miss falls through to slab allocation.
var (
	matrixPool = sync.Pool{}
	cellsPool  = sync.Pool{New: func() any { return make(map[[2]string]Entry, 8) }}
	ownedPool  = sync.Pool{New: func() any { return make(map[[2]string]bool, 8) }}
)

// recycleOwned returns the matrix's ownership map to the pool. Safe whenever
// the matrix is about to drop its mutation rights: the owned map is never
// shared between matrices.
func (m *Matrix) recycleOwned() {
	if m.owned != nil {
		clear(m.owned)
		ownedPool.Put(m.owned)
		m.owned = nil
	}
}

// matrixSlab batch-allocates Matrix headers. Most headers stay live inside a
// returned Result and can never be recycled, so allocating them one by one
// makes every Clone an allocation; carving them from slabs amortizes that to
// one allocation per slabSize clones.
type matrixSlab struct {
	buf  []Matrix
	next int
}

const slabSize = 64

var slabPool = sync.Pool{New: func() any { return &matrixSlab{buf: make([]Matrix, slabSize)} }}

// getMatrix returns a zeroed Matrix header: a recycled one when available,
// otherwise the next header from a slab.
func getMatrix() *Matrix {
	if v := matrixPool.Get(); v != nil {
		return v.(*Matrix)
	}
	s := slabPool.Get().(*matrixSlab)
	if s.next >= len(s.buf) {
		s = &matrixSlab{buf: make([]Matrix, slabSize)}
	}
	m := &s.buf[s.next]
	s.next++
	slabPool.Put(s)
	return m
}

// newMatrix builds a pooled matrix sharing the caller's vars slice (vars are
// never mutated, so sharing is safe package-internally).
func newMatrix(vars []string) *Matrix {
	m := getMatrix()
	m.vars = vars
	m.cells = cellsPool.Get().(map[[2]string]Entry)
	m.viols = nil // lazily allocated on the first violation
	m.sharedCells, m.sharedViols = false, false
	m.owned = nil
	return m
}

// NewMatrix returns an empty matrix over the variables.
func NewMatrix(vars []string) *Matrix {
	return newMatrix(append([]string(nil), vars...))
}

// release returns the matrix header — and its cells map, when not shared —
// to the pools. The caller must guarantee no other reference to the header
// exists. Entries are never recycled: they may be shared with live clones.
func (m *Matrix) release() {
	if m == nil {
		return
	}
	if !m.sharedCells && m.cells != nil {
		clear(m.cells)
		cellsPool.Put(m.cells)
	}
	m.recycleOwned()
	*m = Matrix{}
	matrixPool.Put(m)
}

// Vars returns the variables, in display order.
func (m *Matrix) Vars() []string { return m.vars }

// Clone returns a logically deep copy in O(1): both matrices drop in-place
// mutation rights and copy on their next write.
func (m *Matrix) Clone() *Matrix {
	engineStats.clones.Add(1)
	m.sharedCells, m.sharedViols = true, true
	m.recycleOwned()
	out := getMatrix()
	*out = Matrix{
		vars:        m.vars,
		cells:       m.cells,
		viols:       m.viols,
		sharedCells: true,
		sharedViols: true,
	}
	return out
}

// ensureCells makes the cells map private (entries remain shared).
func (m *Matrix) ensureCells() {
	if !m.sharedCells {
		return
	}
	nc := cellsPool.Get().(map[[2]string]Entry)
	for k, v := range m.cells {
		nc[k] = v
	}
	m.cells = nc
	m.sharedCells = false
	m.owned = nil
}

// ensureViols makes the violations map private and non-nil.
func (m *Matrix) ensureViols() {
	if !m.sharedViols {
		if m.viols == nil {
			m.viols = map[Violation]bool{}
		}
		return
	}
	nv := make(map[Violation]bool, len(m.viols))
	for v := range m.viols {
		nv[v] = true
	}
	m.viols = nv
	m.sharedViols = false
}

// Entry returns PM(p, q); nil means no relation. The returned entry must be
// treated as read-only; use mutableEntry to derive a writable one.
func (m *Matrix) Entry(p, q string) Entry { return m.cells[[2]string{p, q}] }

// mutableEntry returns an entry for PM(p, q) that the caller may mutate and
// hand back to set: the stored entry when owned, a clone otherwise.
func (m *Matrix) mutableEntry(p, q string) Entry {
	k := [2]string{p, q}
	e := m.cells[k]
	if e == nil || (m.owned != nil && m.owned[k]) {
		return e
	}
	return e.clone()
}

// set replaces PM(p, q). The entry must be exclusively owned by the caller
// (freshly built or obtained from mutableEntry); set records that ownership.
func (m *Matrix) set(p, q string, e Entry) {
	m.ensureCells()
	k := [2]string{p, q}
	if len(e) == 0 {
		delete(m.cells, k)
		if m.owned != nil {
			delete(m.owned, k)
		}
		return
	}
	m.cells[k] = e
	if m.owned == nil {
		m.owned = ownedPool.Get().(map[[2]string]bool)
	}
	m.owned[k] = true
}

// addRel inserts one relation into PM(p, q). Alias and Top relations are
// mirrored into PM(q, p). Self-cells are never stored.
func (m *Matrix) addRel(p, q string, r Rel) {
	if p == q {
		return
	}
	m.set(p, q, m.mutableEntry(p, q).add(r))
	if r.Kind == RelAlias || r.Kind == RelTop {
		m.set(q, p, m.mutableEntry(q, p).add(r))
	}
}

// kill removes every relation involving v (v was redefined or nulled), and
// marks stale any Via tags that reference v so later stores do not remove
// relations belonging to the variable's previous value.
func (m *Matrix) kill(v string) {
	m.reanchorViolations(v)
	m.ensureCells()
	for k := range m.cells {
		if k[0] == v || k[1] == v {
			delete(m.cells, k)
			if m.owned != nil {
				delete(m.owned, k)
			}
		}
	}
	m.staleVia(v)
}

// deadName marks a violation participant whose variable was reassigned with
// no surviving must-alias. '$' cannot appear in a source identifier, so the
// name can never match a store base again: the violation becomes permanent
// for this path (the broken edge still exists in the heap, we just lost our
// name for its node).
const deadName = "dead$"

// reanchorViolations renames v inside outstanding violations before v is
// reassigned. Violations describe broken heap edges through the variable
// that named the node at store time; once that variable means a different
// node, a store through it must NOT count as repairing the old edge. A
// surviving must-alias keeps the violation repairable under its name;
// otherwise the participant goes dead. Must run before v's cells are
// removed (the must-alias lookup needs them).
func (m *Matrix) reanchorViolations(v string) {
	var renamed []Violation
	for viol := range m.viols {
		if viol.Base == v || viol.Other == v {
			renamed = append(renamed, viol)
		}
	}
	if len(renamed) == 0 {
		return
	}
	alias := deadName
	for _, x := range m.relatedVars(v) {
		if m.MustAlias(v, x) {
			alias = x
			break
		}
	}
	m.ensureViols()
	for _, viol := range renamed {
		delete(m.viols, viol)
		if viol.Base == v {
			viol.Base = alias
		}
		if viol.Other == v {
			viol.Other = alias
		}
		m.viols[viol] = true
	}
}

// staleVia marks Via tags naming v as stale.
func (m *Matrix) staleVia(v string) {
	for k, e := range m.cells {
		var changed Entry
		for rk, r := range e {
			if r.Via.Var == v && !r.Via.Stale {
				if changed == nil {
					changed = e.clone()
				}
				delete(changed, rk)
				r.Via.Stale = true
				changed = changed.add(r)
			}
		}
		if changed != nil {
			m.set(k[0], k[1], changed)
		}
	}
}

// copyRelations makes dst's relations identical to src's (dst = src).
func (m *Matrix) copyRelations(dst, src string) {
	type upd struct {
		p, q string
		e    Entry
	}
	var updates []upd
	for k, e := range m.cells {
		switch {
		case k[0] == src && k[1] != dst:
			updates = append(updates, upd{dst, k[1], e.clone()})
		case k[1] == src && k[0] != dst:
			updates = append(updates, upd{k[0], dst, e.clone()})
		}
	}
	for _, u := range updates {
		m.set(u.p, u.q, u.e)
	}
}

// related reports whether p and q have any recorded relation in either
// direction.
func (m *Matrix) related(p, q string) bool {
	return len(m.Entry(p, q)) > 0 || len(m.Entry(q, p)) > 0
}

// relatedVars returns every variable related to p (excluding p itself), in
// stable order.
func (m *Matrix) relatedVars(p string) []string {
	set := map[string]bool{}
	for k := range m.cells {
		if k[0] == p {
			set[k[1]] = true
		}
		if k[1] == p {
			set[k[0]] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// addViolation records an abstraction violation.
func (m *Matrix) addViolation(v Violation) {
	m.ensureViols()
	m.viols[v] = true
}

// deleteViolation removes a violation (a repairing store was seen).
func (m *Matrix) deleteViolation(v Violation) {
	m.ensureViols()
	delete(m.viols, v)
}

// Violations returns outstanding violations in stable order.
func (m *Matrix) Violations() []Violation {
	out := make([]Violation, 0, len(m.viols))
	for v := range m.viols {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Valid reports whether the abstraction is currently valid (no outstanding
// violations) — the paper's precondition for using ADDS-derived facts in
// transformations.
func (m *Matrix) Valid() bool { return len(m.viols) == 0 }

// MayAlias reports whether p and q may point to the same node. Identical
// names trivially alias. The empty-entry rule applies only while the
// abstraction is valid; with outstanding violations every related pair is
// suspect, and we conservatively also treat unrelated pairs as possible
// aliases because derived facts may be missing.
func (m *Matrix) MayAlias(p, q string) bool {
	if p == q {
		return true
	}
	if !m.Valid() {
		return true
	}
	return m.Entry(p, q).hasAliasInfo() || m.Entry(q, p).hasAliasInfo()
}

// MustAlias reports whether p and q definitely point to the same node.
func (m *Matrix) MustAlias(p, q string) bool {
	if p == q {
		return true
	}
	return m.Entry(p, q).mustAlias() && m.Entry(q, p).mustAlias()
}

// sigCanonical reports whether every relation in the entry has a distinct
// signature. joinEntries folds same-signature relations (next^1 and next^2
// merge to next+), so joining a non-canonical entry with itself does NOT
// yield itself; only sig-canonical entries are safe to share at a join.
func sigCanonical(e Entry) bool {
	if len(e) <= 1 {
		return true
	}
	var buf [8]string
	sigs := buf[:0]
	for _, r := range e {
		k := sigKey(r)
		for _, s := range sigs {
			if s == k {
				return false
			}
		}
		sigs = append(sigs, k)
	}
	return true
}

// setShared installs an entry owned by another matrix without granting
// mutation rights: a later write to this cell goes through mutableEntry,
// which clones unowned entries first. Entries are never recycled by release,
// so the donor matrix being pooled later cannot invalidate the reference.
func (m *Matrix) setShared(k [2]string, e Entry) {
	m.ensureCells()
	m.cells[k] = e
}

// Join merges two matrices (control-flow join). Cells whose entries are
// structurally equal on both sides — the overwhelmingly common case at the
// joins of a converging fixpoint — share the left entry pointer-equal
// instead of rebuilding it, so a join that changes one cell shares every
// other with its parents. Sharing requires sig-canonical entries (see
// sigCanonical): for those, signature matching pairs each relation with
// itself, merges paths to identical content and keeps certainty, so the
// joined entry is contentwise the shared one.
func Join(a, b *Matrix) *Matrix {
	out := newMatrix(a.vars)
	keys := map[[2]string]bool{}
	for k := range a.cells {
		keys[k] = true
	}
	for k := range b.cells {
		keys[k] = true
	}
	for k := range keys {
		ea, eb := a.cells[k], b.cells[k]
		if ea != nil && equalEntries(ea, eb) && sigCanonical(ea) {
			out.setShared(k, ea)
			engineStats.sharedRows.Add(1)
			continue
		}
		out.set(k[0], k[1], joinEntries(ea, eb))
	}
	for v := range a.viols {
		out.addViolation(v)
	}
	for v := range b.viols {
		out.addViolation(v)
	}
	return out
}

// Equal compares matrices for fixed-point detection.
func (m *Matrix) Equal(o *Matrix) bool {
	if len(m.cells) != len(o.cells) || len(m.viols) != len(o.viols) {
		return false
	}
	for k, e := range m.cells {
		if !equalEntries(e, o.cells[k]) {
			return false
		}
	}
	for v := range m.viols {
		if !o.viols[v] {
			return false
		}
	}
	return true
}

// String renders the matrix as an aligned table in the paper's style, using
// only variables that have at least one relation (plus all declared vars
// when small). Temporaries with no relations are omitted.
func (m *Matrix) String() string {
	vars := m.displayVars()
	width := 3
	for _, v := range vars {
		if len(v) > width {
			width = len(v)
		}
	}
	cell := func(s string) string { return fmt.Sprintf(" %-*s |", width+3, s) }
	var b strings.Builder
	b.WriteString(cell(""))
	for _, q := range vars {
		b.WriteString(cell(q))
	}
	b.WriteByte('\n')
	for _, p := range vars {
		b.WriteString(cell(p))
		for _, q := range vars {
			if p == q {
				b.WriteString(cell("="))
				continue
			}
			b.WriteString(cell(m.Entry(p, q).String()))
		}
		b.WriteByte('\n')
	}
	if len(m.viols) > 0 {
		b.WriteString("violations:")
		for _, v := range m.Violations() {
			b.WriteString(" " + v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// displayVars returns declared variables plus any temporaries that carry
// relations.
func (m *Matrix) displayVars() []string {
	used := map[string]bool{}
	for k, e := range m.cells {
		if len(e) > 0 {
			used[k[0]] = true
			used[k[1]] = true
		}
	}
	var out []string
	for _, v := range m.vars {
		if !strings.HasPrefix(v, "@t") || used[v] {
			out = append(out, v)
		}
	}
	return out
}

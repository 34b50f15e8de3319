package pathmatrix

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// varIndex addresses a variable list by dense index. Every matrix of one
// fixpoint run shares its run's index; IterationMatrix and the summary runs
// build their own over their shadow-extended lists. An index is immutable:
// a write naming a variable outside it moves that one matrix to an extended
// copy (see slot).
type varIndex struct {
	names  []string
	pos    map[string]int
	byName []int // indices in name order: relatedVars and the JSON cell order
}

func newVarIndex(names []string) *varIndex {
	ix := &varIndex{names: names, pos: make(map[string]int, len(names))}
	ix.byName = make([]int, 0, len(names))
	for i, v := range names {
		if _, dup := ix.pos[v]; !dup {
			ix.pos[v] = i
			ix.byName = append(ix.byName, i)
		}
	}
	slices.SortFunc(ix.byName, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	return ix
}

// same reports whether two indexes address their variables identically.
func (ix *varIndex) same(o *varIndex) bool {
	return ix == o || slices.Equal(ix.names, o.names)
}

// Matrix is a path matrix at one program point: relations between every
// ordered pair of live pointer variables, plus the set of currently
// outstanding abstraction violations. Alias relations (RelAlias, RelTop) are
// stored symmetrically in both cells; path relations are directional.
//
// Cells are a table of rows indexed by variable: rows[i][j] is
// PM(names[i], names[j]), and a nil or short row reads as empty. Matrices
// are copy-on-write at three levels. Clone is O(1) and shares the row table
// and the violation map; the first write after it copies the table (row
// headers only), the first write to a row copies that row, and an entry is
// cloned only when it is about to be mutated. All mutation therefore goes
// through setAt/addRel/addViolation/deleteViolation, which maintain the
// sharing flags and the ownership bits.
type Matrix struct {
	vars  []string // display order
	ix    *varIndex
	rows  [][]Entry
	viols map[Violation]bool

	sharedRows  bool // rows table may be referenced by another matrix
	sharedViols bool // viols map may be referenced by another matrix
	// own marks what this matrix created since it last shared its table and
	// may therefore mutate in place: bit i row i, bit n+i*n+j entry (i, j).
	// An entry bit is only ever set inside an owned row.
	own    []uint64
	ownAny bool
}

// matrixSlab batch-allocates Matrix headers. Allocating them one by one
// makes every Clone an allocation; carving them from slabs amortizes that to
// one allocation per slabSize clones. Headers are never recycled: a
// recycling pool measured no gain over the slabs alone.
type matrixSlab struct {
	buf  []Matrix
	next int
}

const slabSize = 64

var slabPool = sync.Pool{New: func() any { return &matrixSlab{buf: make([]Matrix, slabSize)} }}

// getMatrix returns the next zeroed Matrix header from a slab.
func getMatrix() *Matrix {
	s := slabPool.Get().(*matrixSlab)
	if s.next >= len(s.buf) {
		s = &matrixSlab{buf: make([]Matrix, slabSize)}
	}
	m := &s.buf[s.next]
	s.next++
	slabPool.Put(s)
	return m
}

// newMatrix builds an empty matrix over a shared variable list and
// index (both are never mutated, so sharing is safe package-internally).
func newMatrix(vars []string, ix *varIndex) *Matrix {
	m := getMatrix()
	*m = Matrix{vars: vars, ix: ix}
	return m
}

// NewMatrix returns an empty matrix over the variables.
func NewMatrix(vars []string) *Matrix {
	vars = append([]string(nil), vars...)
	return newMatrix(vars, newVarIndex(vars))
}

// Vars returns the variables, in display order.
func (m *Matrix) Vars() []string { return m.vars }

// dropRights forgets every ownership bit: rows and entries this matrix
// created may now be referenced elsewhere.
func (m *Matrix) dropRights() {
	if m.ownAny {
		clear(m.own)
		m.ownAny = false
	}
}

// Clone returns a logically deep copy in O(1): both matrices drop in-place
// mutation rights and copy on their next write. Cloning a matrix that
// already shares everything writes nothing to it, so finished results may
// be cloned concurrently.
func (m *Matrix) Clone() *Matrix {
	if !m.sharedRows || !m.sharedViols || m.ownAny {
		m.sharedRows, m.sharedViols = true, true
		m.dropRights()
	}
	out := getMatrix()
	*out = Matrix{
		vars:        m.vars,
		ix:          m.ix,
		rows:        m.rows,
		viols:       m.viols,
		sharedRows:  true,
		sharedViols: true,
	}
	return out
}

// at returns entry (i, j); out-of-table indices read as empty.
func (m *Matrix) at(i, j int) Entry {
	if i < len(m.rows) {
		if r := m.rows[i]; j < len(r) {
			return r[j]
		}
	}
	return nil
}

// Entry returns PM(p, q); nil means no relation. The returned entry must be
// treated as read-only; use mutableEntry to derive a writable one.
func (m *Matrix) Entry(p, q string) Entry {
	i, ok := m.ix.pos[p]
	if !ok {
		return nil
	}
	j, ok := m.ix.pos[q]
	if !ok {
		return nil
	}
	return m.at(i, j)
}

// slot returns v's index for a write, moving the matrix to an extended index
// when v is not in its own. The engine only ever names a run's variables,
// so this is the rare path that keeps arbitrary names safe.
func (m *Matrix) slot(v string) int {
	if i, ok := m.ix.pos[v]; ok {
		return i
	}
	names := append(append([]string(nil), m.ix.names...), v)
	m.ensureRows()
	m.dropRights() // the bit layout depends on the index size
	m.ix = newVarIndex(names)
	return len(names) - 1
}

func (m *Matrix) owns(b int) bool {
	return m.ownAny && b>>6 < len(m.own) && m.own[b>>6]&(1<<(b&63)) != 0
}

func (m *Matrix) grant(b int) {
	if b>>6 >= len(m.own) {
		n := len(m.ix.names)
		m.own = append(m.own, make([]uint64, (n*(n+1)+63)/64-len(m.own))...)
	}
	m.own[b>>6] |= 1 << (b & 63)
	m.ownAny = true
}

func (m *Matrix) revoke(b int) {
	if m.owns(b) {
		m.own[b>>6] &^= 1 << (b & 63)
	}
}

func (m *Matrix) cellBit(i, j int) int { n := len(m.ix.names); return n + i*n + j }

// ensureRows makes the row table private and full-length (rows may still
// be shared).
func (m *Matrix) ensureRows() {
	n := len(m.ix.names)
	if !m.sharedRows && len(m.rows) >= n {
		return
	}
	rows := make([][]Entry, max(n, len(m.rows)))
	copy(rows, m.rows)
	m.rows = rows
	m.sharedRows = false
}

// row returns row i for writing: private and full-length. Copying a row
// leaves its entries shared, so none of them is owned yet.
func (m *Matrix) row(i int) []Entry {
	m.ensureRows()
	if m.owns(i) {
		return m.rows[i]
	}
	n := len(m.ix.names)
	r := make([]Entry, n)
	copy(r, m.rows[i])
	m.rows[i] = r
	for j := 0; m.ownAny && j < n; j++ {
		m.revoke(m.cellBit(i, j)) // left over from a row kill dropped
	}
	m.grant(i)
	return r
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

// mutableEntry returns an entry for (i, j) that the caller may mutate and
// hand back to setAt: the stored entry when owned, a clone otherwise.
func (m *Matrix) mutableEntry(i, j int) Entry {
	e := m.at(i, j)
	if e == nil || m.owns(m.cellBit(i, j)) {
		return e
	}
	return e.clone()
}

// setAt replaces entry (i, j). The entry must be exclusively owned by the
// caller (freshly built or obtained from mutableEntry); setAt records that
// ownership.
func (m *Matrix) setAt(i, j int, e Entry) {
	if len(e) == 0 {
		if m.at(i, j) != nil {
			m.row(i)[j] = nil
			m.revoke(m.cellBit(i, j))
		}
		return
	}
	m.row(i)[j] = e
	m.grant(m.cellBit(i, j))
}

// setShared installs an entry that stays referenced elsewhere without
// granting mutation rights: a later write to this cell goes through
// mutableEntry, which clones unowned entries first.
func (m *Matrix) setShared(i, j int, e Entry) {
	m.row(i)[j] = e
	m.revoke(m.cellBit(i, j))
}

// set replaces PM(p, q) under the setAt contract.
func (m *Matrix) set(p, q string, e Entry) {
	if len(e) == 0 && m.Entry(p, q) == nil {
		return
	}
	i := m.slot(p)
	m.setAt(i, m.slot(q), e)
}

// addRel inserts one relation into PM(p, q). Alias and Top relations are
// mirrored into PM(q, p). Self-cells are never stored.
func (m *Matrix) addRel(p, q string, r Rel) {
	if p == q {
		return
	}
	i := m.slot(p)
	m.addRelAt(i, m.slot(q), r)
}

// addRelAt is addRel by index.
func (m *Matrix) addRelAt(i, j int, r Rel) {
	if i == j {
		return
	}
	m.addAt(i, j, r)
	if r.Kind == RelAlias || r.Kind == RelTop {
		m.addAt(j, i, r)
	}
}

// addAt inserts one relation into entry (i, j), leaving the cell untouched
// when the entry already covers it.
func (m *Matrix) addAt(i, j int, r Rel) {
	e := m.at(i, j)
	switch {
	case e.covers(r):
	case e == nil && singleton(r) != nil:
		m.setShared(i, j, singleton(r))
	default:
		m.setAt(i, j, m.mutableEntry(i, j).add(r))
	}
}

// kill removes every relation involving v (v was redefined or nulled), and
// marks stale any Via tags that reference v so later stores do not remove
// relations belonging to the variable's previous value.
func (m *Matrix) kill(v string) {
	m.reanchorViolations(v)
	if i, ok := m.ix.pos[v]; ok {
		if i < len(m.rows) && m.rows[i] != nil {
			m.ensureRows()
			m.rows[i] = nil
			m.revoke(i)
		}
		for r := range m.rows {
			if m.at(r, i) != nil {
				m.setAt(r, i, nil)
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
	for i := range m.rows {
		for j, e := range m.rows[i] {
			var changed Entry
			for k := range e {
				if e[k].Via.Var != v || e[k].Via.Stale {
					continue
				}
				r := e[k]
				if changed == nil {
					changed = e.clone()
				}
				changed = slices.DeleteFunc(changed, func(o Rel) bool { return sameRel(&o, &r) })
				r.Via.Stale = true
				changed = changed.add(r)
			}
			if changed != nil {
				m.setAt(i, j, changed)
			}
		}
	}
}

// copyRelations makes dst's relations identical to src's (dst = src). The
// copies share src's entries, which src's cells stop owning.
func (m *Matrix) copyRelations(dst, src string) {
	s, ok := m.ix.pos[src]
	if !ok {
		return
	}
	d := m.slot(dst)
	for q := range m.ix.names {
		if e := m.at(s, q); e != nil && q != d {
			m.revoke(m.cellBit(s, q))
			m.setShared(d, q, e)
		}
	}
	for p := range m.ix.names {
		if e := m.at(p, s); e != nil && p != d {
			m.revoke(m.cellBit(p, s))
			m.setShared(p, d, e)
		}
	}
}

// related reports whether p and q have any recorded relation in either
// direction.
func (m *Matrix) related(p, q string) bool {
	return len(m.Entry(p, q)) > 0 || len(m.Entry(q, p)) > 0
}

// relatedVars returns every variable related to p (excluding p itself), in
// name order.
func (m *Matrix) relatedVars(p string) []string {
	_, related := m.relatedOf(p)
	var out []string
	for _, x := range related {
		out = append(out, m.ix.names[x])
	}
	return out
}

// relatedOf returns v's index and the indices related to it, or -1 and
// none when v is not in the matrix.
func (m *Matrix) relatedOf(v string) (int, []int) {
	i, ok := m.ix.pos[v]
	if !ok {
		return -1, nil
	}
	return i, m.relatedIdx(i)
}

// relatedIdx is relatedVars by index.
func (m *Matrix) relatedIdx(i int) []int {
	var out []int
	for _, x := range m.ix.byName {
		if x != i && (m.at(i, x) != nil || m.at(x, i) != nil) {
			out = append(out, x)
		}
	}
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
	for i := 1; i < len(e); i++ {
		for k := range e[:i] {
			if sameSig(&e[k], &e[i]) {
				return false
			}
		}
	}
	return true
}

// onIndex re-addresses m's cells over ix by name, extending ix with any
// variable it lacks, and shares the entries. It backs Join and Equal on
// matrices built over different variable lists.
func (m *Matrix) onIndex(ix *varIndex) *Matrix {
	out := newMatrix(m.vars, ix)
	for i, r := range m.rows {
		for j, e := range r {
			if e != nil {
				p := out.slot(m.ix.names[i])
				out.setShared(p, out.slot(m.ix.names[j]), e)
			}
		}
	}
	return out
}

// cellsOn returns views of a's and b's cells over one common index.
func cellsOn(a, b *Matrix) (*Matrix, *Matrix) {
	if a.ix.same(b.ix) {
		return a, b
	}
	vb := b.onIndex(a.ix)
	return a.onIndex(vb.ix), vb
}

func rowAt(m *Matrix, i int) []Entry {
	if i < len(m.rows) {
		return m.rows[i]
	}
	return nil
}

func cellAt(r []Entry, j int) Entry {
	if j < len(r) {
		return r[j]
	}
	return nil
}

// Join merges two matrices (control-flow join). Cells whose entries are
// structurally equal on both sides — the overwhelmingly common case at the
// joins of a converging fixpoint — share the left entry pointer-equal
// instead of rebuilding it, and a row all of whose cells share is the left
// row itself, so a join that changes one cell shares every other with its
// parents. Sharing requires sig-canonical entries (see sigCanonical): for
// those, signature matching pairs each relation with itself, merges paths
// to identical content and keeps certainty, so the joined entry is
// contentwise the shared one. a gives up its mutation rights. The second
// result counts the shared cells.
func Join(a, b *Matrix) (*Matrix, int) {
	a.dropRights()
	va, vb := cellsOn(a, b)
	n := len(va.ix.names)
	out := newMatrix(a.vars, va.ix)
	out.rows = make([][]Entry, n)
	shared := 0
	for i := range out.rows {
		out.rows[i] = joinRows(rowAt(va, i), rowAt(vb, i), n, &shared)
	}
	for v := range a.viols {
		out.addViolation(v)
	}
	for v := range b.viols {
		out.addViolation(v)
	}
	return out, shared
}

// joinRows joins two rows cell by cell, counting shared cells. The result
// is ra itself until a cell needs a joined entry.
func joinRows(ra, rb []Entry, n int, shared *int) []Entry {
	var out []Entry
	for j := 0; j < n; j++ {
		ea, eb := cellAt(ra, j), cellAt(rb, j)
		if ea == nil && eb == nil {
			continue
		}
		if ea != nil && equalEntries(ea, eb) && sigCanonical(ea) {
			*shared++
			if out != nil {
				out[j] = ea
			}
			continue
		}
		if out == nil {
			out = make([]Entry, n)
			copy(out[:j], ra)
		}
		out[j] = joinEntries(ea, eb)
	}
	if out == nil {
		return ra
	}
	return out
}

// Equal compares matrices for fixed-point detection. Rows the two share
// compare equal without a scan.
func (m *Matrix) Equal(o *Matrix) bool {
	if len(m.viols) != len(o.viols) {
		return false
	}
	vm, vo := cellsOn(m, o)
	if n := len(vm.ix.names); len(vm.rows) != len(vo.rows) || len(vm.rows) > 0 && &vm.rows[0] != &vo.rows[0] {
		for i := 0; i < n; i++ {
			ra, rb := rowAt(vm, i), rowAt(vo, i)
			if len(ra) == len(rb) && (len(ra) == 0 || &ra[0] == &rb[0]) {
				continue
			}
			for j := 0; j < n; j++ {
				if !equalEntries(cellAt(ra, j), cellAt(rb, j)) {
					return false
				}
			}
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
	used := make([]bool, len(m.ix.names))
	for i, r := range m.rows {
		for j, e := range r {
			if len(e) > 0 {
				used[i], used[j] = true, true
			}
		}
	}
	var out []string
	for _, v := range m.vars {
		if !strings.HasPrefix(v, "@t") || used[m.ix.pos[v]] {
			out = append(out, v)
		}
	}
	return out
}

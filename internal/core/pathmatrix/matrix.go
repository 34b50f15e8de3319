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
// Cells are a table of rows indexed by variable: rows[i][j] is the id, in
// the matrix's entry table, of PM(names[i], names[j]); 0, a nil or a short
// row read as empty. Matrices are copy-on-write at two levels. Clone is O(1)
// and shares the row table and the violation map; the first write after it
// copies the table (row headers only), and the first write to a row copies
// that row. Entries need no level of their own: interned entries are
// immutable. All mutation therefore goes through setID/setAt/addRel/
// addViolation/deleteViolation, which maintain the sharing flags and the
// row ownership bits.
type Matrix struct {
	vars  []string // display order
	ix    *varIndex
	tab   *entryTable
	rows  [][]uint32
	viols map[Violation]bool
	// own marks the rows this matrix copied since it last shared its table
	// and may therefore mutate in place: bit i is row i.
	own []uint64

	sharedRows  bool // rows table may be referenced by another matrix
	sharedViols bool // viols map may be referenced by another matrix
	ownAny      bool // some bit of own is set
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

// newMatrix builds an empty matrix over a shared variable list, index and
// entry table (the list and index are never mutated, so sharing them is
// safe package-internally).
func newMatrix(vars []string, ix *varIndex, tab *entryTable) *Matrix {
	m := getMatrix()
	*m = Matrix{vars: vars, ix: ix, tab: tab}
	return m
}

// NewMatrix returns an empty matrix over the variables, with its own entry
// table.
func NewMatrix(vars []string) *Matrix {
	vars = append([]string(nil), vars...)
	return newMatrix(vars, newVarIndex(vars), newEntryTable())
}

// Vars returns the variables, in display order.
func (m *Matrix) Vars() []string { return m.vars }

// dropRights forgets every ownership bit: rows this matrix copied may now
// be referenced elsewhere.
func (m *Matrix) dropRights() {
	if m.ownAny {
		clear(m.own)
		m.ownAny = false
	}
}

// freeze shares everything, so Clone and Join write nothing to m and
// finished results may be cloned and joined concurrently.
func (m *Matrix) freeze() {
	m.sharedRows, m.sharedViols = true, true
	m.dropRights()
}

// Clone returns a logically deep copy in O(1): both matrices drop in-place
// mutation rights and copy on their next write. Cloning a matrix that
// already shares everything writes nothing to it.
func (m *Matrix) Clone() *Matrix {
	if !m.sharedRows || !m.sharedViols || m.ownAny {
		m.freeze()
	}
	out := getMatrix()
	*out = Matrix{
		vars:        m.vars,
		ix:          m.ix,
		tab:         m.tab,
		rows:        m.rows,
		viols:       m.viols,
		sharedRows:  true,
		sharedViols: true,
	}
	return out
}

// id returns the id of entry (i, j); out-of-table indices read as empty.
func (m *Matrix) id(i, j int) uint32 {
	if i < len(m.rows) {
		if r := m.rows[i]; j < len(r) {
			return r[j]
		}
	}
	return 0
}

// at returns entry (i, j), read-only.
func (m *Matrix) at(i, j int) Entry { return m.tab.entries[m.id(i, j)] }

// Entry returns PM(p, q); nil means no relation. The returned entry is
// interned and must be treated as read-only.
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
	m.dropRights() // owned rows are only as long as the old index
	m.ix = newVarIndex(names)
	return len(names) - 1
}

// writable returns m's entry table for interning, first moving m into a
// fresh table when its own is frozen. The engine only interns into its
// run's own table, so this is the rare path that keeps writes to finished
// results safe.
func (m *Matrix) writable() *entryTable {
	if m.tab.frozen {
		o := m.onIndex(m.ix, newEntryTable())
		m.tab, m.rows, m.sharedRows = o.tab, o.rows, false
		m.dropRights()
	}
	return m.tab
}

func (m *Matrix) owns(i int) bool {
	return m.ownAny && i>>6 < len(m.own) && m.own[i>>6]&(1<<(i&63)) != 0
}

func (m *Matrix) grant(i int) {
	for i>>6 >= len(m.own) {
		m.own = append(m.own, 0)
	}
	m.own[i>>6] |= 1 << (i & 63)
	m.ownAny = true
}

func (m *Matrix) revoke(i int) {
	if m.owns(i) {
		m.own[i>>6] &^= 1 << (i & 63)
	}
}

// ensureRows makes the row table private and full-length (rows may still
// be shared).
func (m *Matrix) ensureRows() {
	n := len(m.ix.names)
	if !m.sharedRows && len(m.rows) >= n {
		return
	}
	rows := make([][]uint32, max(n, len(m.rows)))
	copy(rows, m.rows)
	m.rows = rows
	m.sharedRows = false
}

// row returns row i for writing: private and full-length.
func (m *Matrix) row(i int) []uint32 {
	m.ensureRows()
	if m.owns(i) {
		return m.rows[i]
	}
	r := make([]uint32, len(m.ix.names))
	copy(r, m.rows[i])
	m.rows[i] = r
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

// setID replaces entry (i, j) by an id of m's table.
func (m *Matrix) setID(i, j int, id uint32) {
	if m.id(i, j) != id {
		m.row(i)[j] = id
	}
}

// setAt replaces entry (i, j) by e, interned; e stays the caller's.
func (m *Matrix) setAt(i, j int, e Entry) {
	m.setID(i, j, m.writable().intern(e))
}

// set replaces PM(p, q) by e.
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
// when the entry already covers it. The grown entry is built in the table's
// scratch buffer and then interned.
func (m *Matrix) addAt(i, j int, r Rel) {
	if m.at(i, j).covers(r) {
		return
	}
	t := m.writable()
	t.buf = append(t.buf[:0], m.at(i, j)...).add(r)
	m.setID(i, j, t.intern(t.buf))
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
			m.setID(r, i, 0)
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
		for j := range m.rows[i] {
			e := m.at(i, j)
			var changed Entry
			for k := range e {
				if e[k].Via.Var != v || e[k].Via.Stale {
					continue
				}
				r := e[k]
				if changed == nil {
					changed = append(Entry(nil), e...)
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

// copyRelations makes dst's relations identical to src's (dst = src) by
// copying src's ids.
func (m *Matrix) copyRelations(dst, src string) {
	s, ok := m.ix.pos[src]
	if !ok {
		return
	}
	d := m.slot(dst)
	for q := range m.ix.names {
		if id := m.id(s, q); id != 0 && q != d {
			m.setID(d, q, id)
		}
	}
	for p := range m.ix.names {
		if id := m.id(p, s); id != 0 && p != d {
			m.setID(p, d, id)
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
		if x != i && (m.id(i, x) != 0 || m.id(x, i) != 0) {
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
	if len(out) > 1 {
		// Render each key once; sorting (key, violation) pairs makes the
		// comparisons, and so the permutation, those of sorting by String.
		type keyed struct {
			key string
			v   Violation
		}
		ks := make([]keyed, len(out))
		for i, v := range out {
			ks[i] = keyed{v.String(), v}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
		for i, k := range ks {
			out[i] = k.v
		}
	}
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
// yield itself; only sig-canonical entries are safe to share at a join. The
// entry table computes it once per id.
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
// variable it lacks, into table t; the ids stay m's when t is m's table and
// are interned into t otherwise. It backs Join and Equal on matrices built
// over different variable lists or tables, and moves a matrix out of a
// frozen table.
func (m *Matrix) onIndex(ix *varIndex, t *entryTable) *Matrix {
	out := newMatrix(m.vars, ix, t)
	for i, r := range m.rows {
		for j, id := range r {
			if id == 0 {
				continue
			}
			if t != m.tab {
				id = t.intern(m.tab.entries[id])
			}
			p := out.slot(m.ix.names[i])
			out.setID(p, out.slot(m.ix.names[j]), id)
		}
	}
	return out
}

// cellsOn returns views of a's and b's cells over one common index, each in
// its own table.
func cellsOn(a, b *Matrix) (*Matrix, *Matrix) {
	if a.ix.same(b.ix) {
		return a, b
	}
	vb := b.onIndex(a.ix, b.tab)
	return a.onIndex(vb.ix, a.tab), vb
}

// inTable returns m, or a copy of it re-interned into t.
func (m *Matrix) inTable(t *entryTable) *Matrix {
	if m.tab == t {
		return m
	}
	return m.onIndex(m.ix, t)
}

func rowAt(m *Matrix, i int) []uint32 {
	if i < len(m.rows) {
		return m.rows[i]
	}
	return nil
}

func cellAt(r []uint32, j int) uint32 {
	if j < len(r) {
		return r[j]
	}
	return 0
}

// Join merges two matrices (control-flow join). Cells holding one id on
// both sides — the overwhelmingly common case at the joins of a converging
// fixpoint — keep that id instead of joining, and a row all of whose cells
// keep theirs is the left row itself, so a join that changes one cell
// shares every other with its parents. Keeping an id requires a
// sig-canonical entry (see sigCanonical): for those, signature matching
// pairs each relation with itself, merges paths to identical content and
// keeps certainty, so the joined entry is the same entry. The result lives
// in a's table, or in a fresh one when a's is frozen. a gives up its
// mutation rights. The second result counts the kept cells.
func Join(a, b *Matrix) (*Matrix, int) {
	a.dropRights()
	t := a.tab
	if t.frozen {
		t = newEntryTable()
	}
	va, vb := cellsOn(a, b)
	va, vb = va.inTable(t), vb.inTable(t)
	n := len(va.ix.names)
	out := newMatrix(a.vars, va.ix, t)
	out.rows = make([][]uint32, n)
	shared := 0
	for i := range out.rows {
		out.rows[i] = t.joinRows(rowAt(va, i), rowAt(vb, i), n, &shared)
	}
	for v := range a.viols {
		out.addViolation(v)
	}
	for v := range b.viols {
		out.addViolation(v)
	}
	return out, shared
}

// joinRows joins two rows cell by cell, counting kept cells. The result is
// ra itself until a cell needs a joined entry.
func (t *entryTable) joinRows(ra, rb []uint32, n int, shared *int) []uint32 {
	var out []uint32
	for j := 0; j < n; j++ {
		ea, eb := cellAt(ra, j), cellAt(rb, j)
		if ea == eb && (ea == 0 || t.canon[ea]) {
			if ea != 0 {
				*shared++
				if out != nil {
					out[j] = ea
				}
			}
			continue
		}
		if out == nil {
			out = make([]uint32, n)
			copy(out[:j], ra)
		}
		out[j] = t.join(ea, eb)
	}
	if out == nil {
		return ra
	}
	return out
}

// Equal compares matrices for fixed-point detection. Rows the two share
// compare equal without a scan; cells of one table compare by id.
func (m *Matrix) Equal(o *Matrix) bool {
	if len(m.viols) != len(o.viols) {
		return false
	}
	vm, vo := cellsOn(m, o)
	sameTab := vm.tab == vo.tab
	if n := len(vm.ix.names); len(vm.rows) != len(vo.rows) || len(vm.rows) > 0 && &vm.rows[0] != &vo.rows[0] {
		for i := 0; i < n; i++ {
			ra, rb := rowAt(vm, i), rowAt(vo, i)
			if len(ra) == len(rb) && (len(ra) == 0 || &ra[0] == &rb[0]) {
				continue
			}
			for j := 0; j < n; j++ {
				a, b := cellAt(ra, j), cellAt(rb, j)
				if sameTab && a != b || !sameTab && !equalEntries(vm.tab.entries[a], vo.tab.entries[b]) {
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
		for j, id := range r {
			if id != 0 {
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

package pathmatrix

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/norm"
)

// varIndex addresses a variable list by dense index. Every matrix of one
// fixpoint run shares its run's index; IterationMatrix and the summary runs
// build their own over their shadow-extended lists. An index is immutable,
// and its names are the variables of every matrix over it.
type varIndex struct {
	names  []string
	pos    map[string]int
	byName []int // indices in name order: appendRelated and the JSON cell order
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

// Matrix is a path matrix at one program point: relations between every
// ordered pair of live pointer variables, plus the set of currently
// outstanding abstraction violations. Alias relations (RelAlias, RelTop) are
// stored symmetrically in both cells; path relations are directional.
//
// A matrix belongs to one fixpoint run: it shares the run's variable index
// and entry table, writes only while the run is open, and joins and
// compares only with matrices of the same run.
//
// Cells are a table of rows indexed by variable: rows[i][j] is the id, in
// the run's entry table, of PM(names[i], names[j]); 0, a nil or a short
// row read as empty. Rows are copy-on-write at two levels. Clone is O(1)
// and shares the row table; the first write after it copies the table (row
// headers only), and the first write to a row copies that row. Entries and
// violation sets need no level of their own: interned entries are
// immutable, and a violation set is a sorted slice that is replaced, never
// written. All mutation therefore goes through set, addRel, addRelAt,
// copyRelations, kill and addViolation/deleteViolation, which maintain the
// row sharing flag and ownership bits, and panic on a matrix of a finished
// run.
type Matrix struct {
	ix   *varIndex
	tab  *entryTable
	rows [][]uint32
	// viols is the set of outstanding violations, sorted by
	// compareViolations. It is immutable, so matrices share it by value.
	viols []Violation
	// own marks the rows this matrix copied since it last shared its table
	// and may therefore mutate in place: bit i is row i.
	own []uint64

	sharedRows bool // rows table may be referenced by another matrix
	ownAny     bool // some bit of own is set
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

// newMatrix builds an empty matrix of the run that owns ix and tab.
func newMatrix(ix *varIndex, tab *entryTable) *Matrix {
	m := getMatrix()
	*m = Matrix{ix: ix, tab: tab}
	return m
}

// NewMatrix returns an empty matrix over the variables, in a run of its
// own.
func NewMatrix(vars []string) *Matrix {
	return newMatrix(newVarIndex(append([]string(nil), vars...)), newEntryTable())
}

// Vars returns the variables of the matrix's run, in display order. The
// slice is shared and must not be modified.
func (m *Matrix) Vars() []string { return m.ix.names }

// dropRights forgets every ownership bit: rows this matrix copied may now
// be referenced elsewhere.
func (m *Matrix) dropRights() {
	if m.ownAny {
		clear(m.own)
		m.ownAny = false
	}
}

// freeze shares everything, so Clone writes nothing to m and finished
// results may be read and cloned concurrently.
func (m *Matrix) freeze() {
	m.sharedRows = true
	m.dropRights()
}

// Clone returns a logically deep copy in O(1): both matrices drop in-place
// mutation rights and copy on their next write. Cloning a matrix that
// already shares everything writes nothing to it.
func (m *Matrix) Clone() *Matrix {
	if !m.sharedRows || m.ownAny {
		m.freeze()
	}
	out := getMatrix()
	*out = Matrix{ix: m.ix, tab: m.tab, rows: m.rows, viols: m.viols, sharedRows: true}
	return out
}

// id returns the id of entry (i, j); out-of-table indices, -1 among them,
// read as empty.
func (m *Matrix) id(i, j int) uint32 {
	if uint(i) < uint(len(m.rows)) {
		if r := m.rows[i]; uint(j) < uint(len(r)) {
			return r[j]
		}
	}
	return 0
}

// facts returns the facts of entry (i, j).
func (m *Matrix) facts(i, j int) entryFacts { return m.tab.facts[m.id(i, j)] }

// index returns v's index, or -1 when v is not in the matrix.
func (m *Matrix) index(v string) int {
	if i, ok := m.ix.pos[v]; ok {
		return i
	}
	return -1
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

// writable returns m's entry table for interning and memo lookups. Only
// the open run that owns the table writes to it: a write to a matrix of a
// finished run is a fault, and panics.
func (m *Matrix) writable() *entryTable {
	if m.tab.frozen {
		panic("pathmatrix: write to a matrix of a finished run")
	}
	return m.tab
}

// sameRun panics unless a and b belong to one run.
func sameRun(a, b *Matrix) {
	if a.ix != b.ix || a.tab != b.tab {
		panic("pathmatrix: matrices of two runs")
	}
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
// be shared). Making it private starts a write, so m's run must be open.
func (m *Matrix) ensureRows() {
	n := len(m.ix.names)
	if !m.sharedRows && len(m.rows) == n {
		return
	}
	m.writable()
	rows := make([][]uint32, n)
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

// setID replaces entry (i, j) by an id of m's table.
func (m *Matrix) setID(i, j int, id uint32) {
	if m.id(i, j) != id {
		m.row(i)[j] = id
	}
}

// set replaces PM(p, q) by e, interned; e stays the caller's.
func (m *Matrix) set(p, q string, e Entry) {
	if len(e) == 0 && m.Entry(p, q) == nil {
		return
	}
	m.setID(m.index(p), m.index(q), m.writable().intern(e))
}

// addRel inserts one relation into PM(p, q), both variables of m's run.
// Alias and Top relations are mirrored into PM(q, p). Self-cells are never
// stored.
func (m *Matrix) addRel(p, q string, r Rel) {
	if p != q {
		m.addRelAt(m.index(p), m.index(q), r)
	}
}

// addRelAt is addRel by index, through the table's add memo.
func (m *Matrix) addRelAt(i, j int, r Rel) {
	if i == j {
		return
	}
	t := m.writable()
	rel := t.relID(&r)
	m.setID(i, j, t.add(m.id(i, j), rel))
	if r.Kind == RelAlias || r.Kind == RelTop {
		m.setID(j, i, t.add(m.id(j, i), rel))
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
	m.writable()
	if !slices.ContainsFunc(m.viols, func(viol Violation) bool { return viol.Base == v || viol.Other == v }) {
		return
	}
	alias := deadName
	if i := m.index(v); i >= 0 {
		for _, x := range m.ix.byName {
			if x != i && m.mustAliasAt(i, x) {
				alias = m.ix.names[x]
				break
			}
		}
	}
	out := slices.Clone(m.viols)
	for k := range out {
		if out[k].Base == v {
			out[k].Base = alias
		}
		if out[k].Other == v {
			out[k].Other = alias
		}
	}
	slices.SortFunc(out, compareViolations)
	m.viols = slices.Compact(out)
}

// staleVia marks Via tags naming v as stale. Only cells holding a live Via
// tag can change; those go through the table's stale memo.
func (m *Matrix) staleVia(v string) {
	var t *entryTable
	var site uint32
	for i := 0; i < len(m.rows); i++ {
		for j := 0; j < len(m.rows[i]); j++ {
			if m.tab.facts[m.rows[i][j]]&factLiveVia == 0 {
				continue
			}
			if t == nil {
				t = m.writable()
				site = t.site(v, "")
			}
			m.setID(i, j, t.stale(m.rows[i][j], site, v))
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
	d := m.index(dst)
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
	return m.relatedAt(m.index(p), m.index(q))
}

// relatedAt is related by index.
func (m *Matrix) relatedAt(i, j int) bool { return m.id(i, j) != 0 || m.id(j, i) != 0 }

// appendRelated appends to dst the index of every variable related to
// variable i (excluding i itself), in name order; none when i is -1.
func (m *Matrix) appendRelated(dst []int, i int) []int {
	if i < 0 {
		return dst
	}
	for _, x := range m.ix.byName {
		if x != i && m.relatedAt(i, x) {
			dst = append(dst, x)
		}
	}
	return dst
}

// addViolation records an abstraction violation in a new set.
func (m *Matrix) addViolation(v Violation) {
	m.writable()
	if i, found := slices.BinarySearchFunc(m.viols, v, compareViolations); !found {
		m.viols = slices.Concat(m.viols[:i], []Violation{v}, m.viols[i:])
	}
}

// deleteViolation removes a violation (a repairing store was seen), in a
// new set.
func (m *Matrix) deleteViolation(v Violation) {
	m.writable()
	if i, found := slices.BinarySearchFunc(m.viols, v, compareViolations); found {
		m.viols = slices.Concat(m.viols[:i], m.viols[i+1:])
	}
}

// unionViolations returns the sorted union of two violation sets: a itself
// when b adds nothing.
func unionViolations(a, b []Violation) []Violation {
	if len(a) == 0 {
		return b
	}
	if slices.Equal(a, b) {
		return a
	}
	for _, v := range b {
		if _, found := slices.BinarySearchFunc(a, v, compareViolations); !found {
			u := slices.Concat(a, b)
			slices.SortFunc(u, compareViolations)
			return slices.Compact(u)
		}
	}
	return a
}

// Violations returns outstanding violations in stable order: sorted by
// their String form, then field by field.
func (m *Matrix) Violations() []Violation {
	return append([]Violation{}, m.viols...)
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
	return p == q || m.mayAliasAt(m.index(p), m.index(q))
}

// MustAlias reports whether p and q definitely point to the same node.
func (m *Matrix) MustAlias(p, q string) bool {
	return p == q || m.mustAliasAt(m.index(p), m.index(q))
}

// mayAliasAt is MayAlias by index for two different variables: the
// entries' facts decide it.
func (m *Matrix) mayAliasAt(i, j int) bool {
	return !m.Valid() || (m.facts(i, j)|m.facts(j, i))&(factAlias|factTop) != 0
}

// mustAliasAt is MustAlias by index for two different variables.
func (m *Matrix) mustAliasAt(i, j int) bool {
	return m.facts(i, j)&m.facts(j, i)&factMust != 0
}

// explicitAliasAt reports whether the matrix explicitly denotes variables i
// and j as (possible) aliases — an "=" or "=?" entry, not the unknown Top
// relation.
func (m *Matrix) explicitAliasAt(i, j int) bool {
	return (m.facts(i, j)|m.facts(j, i))&factAlias != 0
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

// onIndex copies m's cells onto ix, whose names start with m's, into a
// fresh table: the seed of IterationMatrix's run over the loop head's
// variables and their shadows. Ids intern in m's row order.
func (m *Matrix) onIndex(ix *varIndex) *Matrix {
	out := newMatrix(ix, newEntryTable())
	for i, r := range m.rows {
		for j, id := range r {
			if id != 0 {
				out.setID(i, j, out.tab.intern(m.tab.entries[id]))
			}
		}
	}
	return out
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

// join merges two matrices (control-flow join). Cells holding one id on
// both sides — the overwhelmingly common case at the joins of a converging
// fixpoint — keep that id instead of joining, and a row all of whose cells
// keep theirs is the left row itself, so a join that changes one cell
// shares every other with its parents. Keeping an id requires a
// sig-canonical entry (see sigCanonical): for those, signature matching
// pairs each relation with itself, merges paths to identical content and
// keeps certainty, so the joined entry is the same entry. a and b belong to
// one open run, whose table holds the result. a gives up its mutation
// rights. The second result counts the kept cells.
func join(a, b *Matrix) (*Matrix, int) {
	sameRun(a, b)
	t := a.writable()
	a.dropRights()
	n := len(a.ix.names)
	out := newMatrix(a.ix, t)
	out.rows = make([][]uint32, n)
	shared := 0
	for i := range out.rows {
		out.rows[i] = t.joinRows(rowAt(a, i), rowAt(b, i), n, &shared)
	}
	out.viols = unionViolations(a.viols, b.viols)
	return out, shared
}

// joinRows joins two rows cell by cell, counting kept cells. The result is
// ra itself until a cell needs a joined entry.
func (t *entryTable) joinRows(ra, rb []uint32, n int, shared *int) []uint32 {
	var out []uint32
	for j := 0; j < n; j++ {
		ea, eb := cellAt(ra, j), cellAt(rb, j)
		if ea == eb && (ea == 0 || t.facts[ea]&factCanon != 0) {
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

// equal compares two matrices of one run for fixed-point detection.
// Violation sets compare first; rows the two share compare equal without a
// scan; cells compare by id.
func (m *Matrix) equal(o *Matrix) bool {
	sameRun(m, o)
	if !slices.Equal(m.viols, o.viols) {
		return false
	}
	if n := len(m.ix.names); len(m.rows) != len(o.rows) || len(m.rows) > 0 && &m.rows[0] != &o.rows[0] {
		for i := 0; i < n; i++ {
			ra, rb := rowAt(m, i), rowAt(o, i)
			if len(ra) == len(rb) && (len(ra) == 0 || &ra[0] == &rb[0]) {
				continue
			}
			for j := 0; j < n; j++ {
				if cellAt(ra, j) != cellAt(rb, j) {
					return false
				}
			}
		}
	}
	return true
}

// String renders the matrix as an aligned table in the paper's style, using
// only variables that have at least one relation (plus all declared vars
// when small). Temporaries with no relations are omitted.
func (m *Matrix) String() string {
	vars := m.displayVars(nil)
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
		for _, v := range m.viols {
			b.WriteString(" " + v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// displayVars appends to dst the declared variables plus any temporaries
// that carry relations, in the run's variable order.
func (m *Matrix) displayVars(dst []string) []string {
	var buf [64]bool
	used := buf[:]
	if n := len(m.ix.names); n > len(buf) {
		used = make([]bool, n)
	}
	for i, r := range m.rows {
		for j, id := range r {
			if id != 0 {
				used[i], used[j] = true, true
			}
		}
	}
	for _, v := range m.ix.names {
		if !norm.IsTemp(v) || used[m.ix.pos[v]] {
			dst = append(dst, v)
		}
	}
	return dst
}

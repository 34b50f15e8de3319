package pathmatrix

import (
	"sort"

	"repro/internal/norm"
	"repro/internal/shape"
)

// stepInfo resolves a path step field to its direction and dimension,
// handling dimension pseudo-fields (forward along their dimension).
func stepInfo(st *shape.Type, field string) (dir shape.Direction, dim string, ok bool) {
	if IsDimField(field) {
		return shape.Forward, field[1:], true
	}
	f := st.Field(field)
	if f == nil {
		return shape.None, "", false
	}
	return f.Dir, f.Dim, true
}

// forwardish reports whether the direction moves away from the origin.
func forwardish(d shape.Direction) bool {
	return d == shape.Forward || d == shape.UniquelyForward
}

// widenPath merges adjacent steps over different forward fields of the same
// dimension into a dimension pseudo-step — the paper's "down" widening for
// trees. Without it, tree-walking loops accumulate unboundedly many distinct
// left/right interleavings and the entry saturates to Top.
func widenPath(p Path, st *shape.Type) Path {
	if st == nil {
		return p
	}
	merges := false
	for i := 1; i < len(p); i++ {
		if mergeableSteps(st, p[i-1], p[i]) {
			merges = true
			break
		}
	}
	if !merges {
		return p
	}
	out := make(Path, 0, len(p))
	for _, s := range p {
		if n := len(out); n > 0 && mergeableSteps(st, out[n-1], s) {
			_, dim, _ := stepInfo(st, s.Field)
			prev := out[n-1]
			out[n-1] = Step{
				Field: DimField(dim),
				Min:   prev.Min + s.Min,
				Plus:  prev.Plus || s.Plus,
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// mergeableSteps reports whether two adjacent steps over different fields
// may be widened into one dimension pseudo-step.
func mergeableSteps(st *shape.Type, a, b Step) bool {
	if a.Field == b.Field {
		return false // canon handles same-field merging precisely
	}
	da, dima, oka := stepInfo(st, a.Field)
	db, dimb, okb := stepInfo(st, b.Field)
	return oka && okb && dima == dimb && forwardish(da) && forwardish(db)
}

// normConcat concatenates, widens and canonicalizes; ok=false means the
// result must degrade to Top.
func normConcat(st *shape.Type, a, b Path) (Path, bool) {
	joined, ok := concat(a, b)
	if !ok {
		return nil, false
	}
	return canon(widenPath(joined, st))
}

// transferer applies normalized statements to matrices, consulting the shape
// environment for the ADDS-informed rules of Section 5.1. A transferer is
// used by one analysis goroutine at a time; its buffers are scratch whose
// contents never outlive one statement: the pending relations of a load,
// variable indices (related variables, the store's validation rows and
// columns) and the store's demoted cells.
type transferer struct {
	env     *shape.Env
	scratch []pending
	idx     []int
	demote  [][2]int

	// Interprocedural state (see summary.go): the program's summary table
	// and the pointer-variable → record-type map of the graph under
	// analysis (shadow variables included). Both nil for havoc-only runs.
	summaries *SummaryTable
	varRecord map[string]string

	// applied and fallbacks count the call sites transferred via a summary
	// and those that fell back to the havoc.
	applied, fallbacks uint64
}

// apply mutates m according to stmt.
func (t *transferer) apply(m *Matrix, s *norm.Stmt) {
	switch s.Op {
	case norm.Assign:
		t.assign(m, s.Dst, s.Src)
	case norm.AssignNil, norm.AssignNew:
		// A fresh node is unrelated to everything; NULL aliases nothing.
		m.kill(s.Dst)
	case norm.Deref:
		t.deref(m, s.Dst, s.Src, s.Field, s.TypeName)
	case norm.StorePtr:
		t.store(m, s.Base, s.Field, s.Src, s.TypeName)
	case norm.Free:
		m.kill(s.Base)
	case norm.Call:
		t.call(m, s)
	case norm.ScalarRead, norm.ScalarWrite, norm.ScalarOp:
		// No pointer effect.
	}
}

func (t *transferer) assign(m *Matrix, dst, src string) {
	if dst == src {
		return
	}
	m.kill(dst)
	m.copyRelations(dst, src)
	m.addRel(dst, src, Rel{Kind: RelAlias, Certain: true})
}

// pending is a relation between two variables, by index, to install after
// the whole statement has been derived from the pre-state. dstIdx marks
// the destination, which may have no index yet.
type pending struct {
	p, q int
	rel  Rel
}

const dstIdx = -1

// deref applies p = q->f (dst = src->field), the central ADDS-informed rule.
// All derivations read the pre-state; dst's old value dies first.
func (t *transferer) deref(m *Matrix, dst, src, field, record string) {
	st := t.env.Type(record)
	var fld *shape.Field
	if st != nil {
		fld = st.Field(field)
	}

	t.scratch = t.scratch[:0]
	si := m.slot(src)
	t.idx = m.appendRelated(t.idx[:0], si)

	// Unknown or circular traversal: the paper's conservative case — the
	// target may be any node of the structure, so dst may alias src and
	// every variable related to src.
	if st == nil || fld == nil || !fld.Acyclic() {
		t.add(si, dstIdx, Rel{Kind: RelTop})
		for _, x := range t.idx {
			t.add(x, dstIdx, Rel{Kind: RelTop})
		}
		t.install(m, dst)
		return
	}

	if fld.Dir == shape.Backward {
		t.derefBackward(m, dst, si, fld, st)
		t.install(m, dst)
		return
	}

	// Forward or uniquely forward: Def 4.2 — the target is one step deeper
	// and was never visited before.
	t.add(si, dstIdx, Rel{Kind: RelPath, Certain: true, Path: single(field)})
	if fld.Dir == shape.UniquelyForward {
		if bp := st.BackwardPartner(field); bp != nil {
			// Def 4.6: dst->b is src or NULL.
			t.add(dstIdx, si, Rel{Kind: RelPath, Path: single(bp.Name)})
		}
	}

	di := m.index(dst)
	for _, xi := range t.idx {
		if xi == di {
			continue // dst's old value dies; ignore stale relations
		}
		for _, r := range m.at(xi, si) {
			switch r.Kind {
			case RelAlias:
				// x == src, so x->f == dst.
				t.add(xi, dstIdx, Rel{Kind: RelPath, Certain: r.Certain, Path: single(field)})
			case RelTop:
				t.add(xi, dstIdx, Rel{Kind: RelTop})
			case RelPath:
				if ext, ok := normConcat(st, r.Path, single(field)); ok {
					t.add(xi, dstIdx, Rel{Kind: RelPath, Certain: r.Certain, Path: ext})
				} else {
					t.add(xi, dstIdx, Rel{Kind: RelTop})
				}
			}
		}
		for _, r := range m.at(si, xi) {
			switch r.Kind {
			case RelAlias, RelTop:
				// Mirrored in Entry(x, src); handled above.
			case RelPath:
				t.derefForwardOut(xi, r, fld, st)
			}
		}
	}
	t.install(m, dst)
}

// derefForwardOut handles a path src -> x while deriving dst = src->f:
// what relation does dst have with x?
func (t *transferer) derefForwardOut(x int, r Rel, fld *shape.Field, st *shape.Type) {
	field := fld.Name
	if r.Path.startsWith(field) {
		// Field dereference is functional: src->f is a single node, so a
		// one-step must-path means dst IS x's node.
		for _, sr := range stripLeading(r.Path, field) {
			if !sr.ok {
				continue
			}
			if sr.alias {
				t.add(dstIdx, x, Rel{Kind: RelAlias, Certain: r.Certain && exactOneStep(r.Path, field)})
			} else {
				t.add(dstIdx, x, Rel{Kind: RelPath, Certain: r.Certain && !headIsPlus(r.Path, field), Path: sr.path})
			}
		}
		return
	}
	// A path starting with the dimension pseudo-field of fld's dimension
	// may begin with fld itself: strip one widened step, everything
	// uncertain (the pseudo-step does not say which sibling was taken).
	if df := DimField(fld.Dim); r.Path.startsWith(df) {
		for _, sr := range stripLeading(r.Path, df) {
			if !sr.ok {
				continue
			}
			if sr.alias {
				t.add(dstIdx, x, Rel{Kind: RelAlias})
			} else {
				t.add(dstIdx, x, Rel{Kind: RelPath, Path: sr.path})
			}
		}
		return
	}
	// Path leaves src through a different field g. Decide, using the ADDS
	// declaration, whether the f-subtree and the g-reachable region are
	// provably disjoint.
	if t.disjointDeparture(r.Path, fld, st) {
		return // provably unrelated: leave the entry empty
	}
	t.add(dstIdx, x, Rel{Kind: RelTop})
}

// exactOneStep reports whether the path is exactly field^1.
func exactOneStep(p Path, field string) bool {
	return len(p) == 1 && p[0].Field == field && p[0].Min == 1 && !p[0].Plus
}

// headIsPlus reports whether the leading step has a "+" multiplicity, which
// makes any strip outcome uncertain.
func headIsPlus(p Path, field string) bool {
	return len(p) > 0 && p[0].Field == field && p[0].Plus
}

// disjointDeparture reports whether a path beginning with a field other than
// fld provably cannot reach the node fld points to:
//
//   - the first step is a combined-group sibling of fld and the path keeps
//     descending (Defs 4.7-4.8: disjoint substructures),
//   - the last step is a combined-group sibling of fld (Def 4.8: unique
//     incoming group edge),
//   - every step is backward along fld's dimension (strict ancestors),
//   - every step is forward along a dimension independent of fld's (Def 4.9a).
func (t *transferer) disjointDeparture(p Path, fld *shape.Field, st *shape.Type) bool {
	if len(p) == 0 {
		return false
	}
	firstDir, firstDim, ok := stepInfo(st, p[0].Field)
	if !ok {
		return false
	}
	// Classify the whole path once. The subtree arguments below are only
	// valid when the path cannot climb back out: a backward step after the
	// departure re-enters the region above src, from where a forward step
	// can descend into fld's subtree (left.parent.right from a left child
	// IS src->right).
	descending := true // every step forward, along fld's dim or one independent of it
	ascending := true  // every step backward along fld's dim
	for _, step := range p {
		dir, dim, ok := stepInfo(st, step.Field)
		if !ok {
			return false
		}
		if !forwardish(dir) || !(dim == fld.Dim || st.Independent(dim, fld.Dim)) {
			descending = false
		}
		if dir != shape.Backward || dim != fld.Dim {
			ascending = false
		}
	}
	// Departure through a sibling of fld's combined group stays in the
	// sibling's subtree, disjoint from fld's (Defs 4.7-4.8) — as long as
	// the path keeps descending.
	if fld.Dir == shape.UniquelyForward && st.SameGroup(fld.Name, p[0].Field) && descending {
		return true
	}
	// A pure ascent reaches strict ancestors of src, never fld's subtree.
	if firstDir == shape.Backward && firstDim == fld.Dim && ascending {
		return true
	}
	// A walk whose FINAL step is a combined-group sibling g of fld cannot
	// land on dst no matter where its middle wanders: within a combined
	// uniquely-forward group every node has at most one incoming group
	// edge, and dst's is fld (from src), so a node entered through g is a
	// different node. This is what keeps parent.right from a left child
	// disjoint from src->left while parent.right from a right child (which
	// ends in fld itself) stays Top.
	if fld.Dir == shape.UniquelyForward {
		if last := p[len(p)-1].Field; last != fld.Name && st.SameGroup(fld.Name, last) {
			return true
		}
	}
	// Forward moves entirely along independent dimensions preserve the
	// position along fld's dimension, which dst's extra step changed.
	allIndependentForward := true
	for _, step := range p {
		dir, dim, ok := stepInfo(st, step.Field)
		if !ok || !forwardish(dir) || !st.Independent(dim, fld.Dim) {
			allIndependentForward = false
			break
		}
	}
	return allIndependentForward
}

// derefBackward applies dst = src->b for a backward field (Def 4.6): dst is
// the unique-forward predecessor of src along b's dimension. src is the
// index si, and t.idx holds the variables related to it.
func (t *transferer) derefBackward(m *Matrix, dst string, si int, fld *shape.Field, st *shape.Type) {
	partners := st.ForwardPartners(fld.Name)
	if len(partners) == 0 {
		// No unique-forward partner at all: treat like unknown.
		t.add(si, dstIdx, Rel{Kind: RelTop})
		for _, x := range t.idx {
			t.add(x, dstIdx, Rel{Kind: RelTop})
		}
		return
	}
	// With one partner f, dst->f == src exactly (Def 4.6). With a combined
	// group (e.g. parent vs left/right), dst->g == src for exactly one
	// group member g, so every derived relation is uncertain.
	grouped := len(partners) > 1
	for _, p := range partners {
		t.add(dstIdx, si, Rel{Kind: RelPath, Certain: !grouped, Path: single(p.Name)})
	}

	// If the backward edge itself was recorded (a store y->b = z through a
	// must-alias of src), the target is known directly: dst aliases z.
	for i := range m.rows {
		if i != si && !m.mustAliasAt(i, si) {
			continue
		}
		for j, id := range m.rows[i] {
			if m.tab.facts[id]&factPath == 0 {
				continue
			}
			for _, r := range m.tab.entries[id] {
				if r.Kind == RelPath && exactOneStep(r.Path, fld.Name) {
					t.add(dstIdx, j, Rel{Kind: RelAlias, Certain: r.Certain})
				}
			}
		}
	}

	di := m.index(dst)
	for _, x := range t.idx {
		if x == di {
			continue
		}
		for _, r := range m.at(x, si) {
			switch r.Kind {
			case RelAlias:
				// x == src: dst->uf == x for one of the partners.
				for _, p := range partners {
					t.add(dstIdx, x, Rel{Kind: RelPath, Certain: r.Certain && !grouped, Path: single(p.Name)})
				}
			case RelTop:
				t.add(x, dstIdx, Rel{Kind: RelTop})
			case RelPath:
				t.backwardIn(x, r, partners)
			}
		}
		for _, r := range m.at(si, x) {
			switch r.Kind {
			case RelAlias, RelTop:
				// Mirrored; handled above.
			case RelPath:
				// dst --uf--> src --path--> x, for one of the partners.
				for _, p := range partners {
					if ext, ok := normConcat(st, single(p.Name), r.Path); ok {
						t.add(dstIdx, x, Rel{Kind: RelPath, Certain: r.Certain && !grouped, Path: ext})
					} else {
						t.add(dstIdx, x, Rel{Kind: RelTop})
					}
				}
			}
		}
	}
}

// backwardIn derives dst's relation with x from a path x --π--> src while
// computing dst = src->b: dst is src's forward predecessor, so π minus its
// trailing forward step leads from x to dst. A trailing dimension
// pseudo-step of the partners' dimension also strips (uncertainly).
func (t *transferer) backwardIn(x int, r Rel, partners []*shape.Field) {
	if df := DimField(partners[0].Dim); r.Path.endsWith(df) {
		for _, sr := range stripTrailing(r.Path, df) {
			if !sr.ok {
				continue
			}
			if sr.alias {
				t.add(x, dstIdx, Rel{Kind: RelAlias})
			} else {
				t.add(x, dstIdx, Rel{Kind: RelPath, Path: sr.path})
			}
		}
		return
	}
	matched := false
	for _, p := range partners {
		uf := p.Name
		if !r.Path.endsWith(uf) {
			continue
		}
		matched = true
		tailExact := !r.Path[len(r.Path)-1].Plus && r.Path[len(r.Path)-1].Min == 1
		for _, sr := range stripTrailing(r.Path, uf) {
			if !sr.ok {
				continue
			}
			if sr.alias {
				// x's forward child is src, so x IS src's predecessor —
				// certain even for grouped partners (Def 4.6 per member).
				t.add(x, dstIdx, Rel{Kind: RelAlias,
					Certain: r.Certain && tailExact && len(r.Path) == 1})
			} else {
				t.add(x, dstIdx, Rel{Kind: RelPath, Certain: false, Path: sr.path})
			}
		}
	}
	if !matched {
		// Reaches src by some other final step; its relation to src's
		// forward predecessor is unknown.
		t.add(x, dstIdx, Rel{Kind: RelTop})
	}
}

// add queues a relation derived for the statement being transferred;
// dstIdx marks the destination.
func (t *transferer) add(p, q int, r Rel) {
	t.scratch = append(t.scratch, pending{p, q, r})
}

// install kills dst and applies the queued relations, resolving the
// dstIdx marker to dst's index.
func (t *transferer) install(m *Matrix, dst string) {
	m.kill(dst)
	d := m.slot(dst)
	for _, a := range t.scratch {
		p, q := a.p, a.q
		if p == dstIdx {
			p = d
		}
		if q == dstIdx {
			q = d
		}
		m.addRelAt(p, q, a.rel)
	}
}

// ---------------------------------------------------------------------------
// Stores and validation (Section 5.1.1)

// store applies base->field = src (src == "" for NULL): edge removal,
// abstraction validation, edge addition, and structure-merge completeness.
func (t *transferer) store(m *Matrix, base, field, src, record string) {
	st := t.env.Type(record)
	var fld *shape.Field
	if st != nil {
		fld = st.Field(field)
	}
	b, s := m.index(base), m.index(src)

	// An outstanding acyclicity violation on the edge being overwritten
	// poisons the repair: every relation derived since the break may hide
	// an alias (the broken-window facts were computed by rules that assume
	// the declaration). Remember it before clearing, so re-validation of
	// the new edge can refuse to trust those relations.
	suspectCycle := false
	if src != "" {
		for v := range m.viols {
			if v.Prop == "acyclic" && v.Field == field && (v.Base == base || m.mustAliasAt(m.index(v.Base), b)) {
				suspectCycle = m.relatedAt(s, b)
			}
		}
	}

	t.removeOverwrittenEdge(m, b, base, field, st)
	t.clearRepairedViolations(m, b, base, field, st)

	if st != nil && fld != nil {
		t.validateStore(m, b, s, base, field, src, suspectCycle, fld, st)
	}

	if src == "" {
		return
	}

	// The new edge: base --field--> src's node.
	b = m.slot(base)
	s = m.slot(src)
	via := Via{Var: base, Field: field}
	m.addRelAt(b, s, Rel{Kind: RelPath, Certain: true, Path: single(field), Via: via})

	// Structure merge: everything related to base joins everything related
	// to src. Record the composite path when both halves are known paths;
	// otherwise a Top relation keeps the completeness invariant (two
	// pointers into one structure always share a recorded relation).
	//
	// The merge must run even for pairs that are already related: the new
	// edge creates a new x → base → field → src → y path the existing
	// entry knows nothing about. Skipping such pairs (as this code once
	// did) left stale relations masking the fresh path — the repair-profile
	// campaign shrank that to a doubly-linked splice where PM(c,b) stayed
	// empty across `a->next = b` because a junk (b,c) entry from an earlier
	// join made related(c,b) true, and the analysis went on to refute a
	// real alias downstream.
	t.idx = append(m.appendRelated(t.idx[:0], b), b)
	nx := len(t.idx)
	t.idx = append(m.appendRelated(t.idx, s), s)
	xs, ys := t.idx[:nx], t.idx[nx:]
	for _, x := range xs {
		for _, y := range ys {
			if x == y {
				continue
			}
			if x == b && y == s {
				continue
			}
			t.mergeRelation(m, x, y, b, s, via, st)
		}
	}
}

// mergeRelation relates variable x (on base's side) with y (on src's side),
// by index, after the store base->field = src (via).
func (t *transferer) mergeRelation(m *Matrix, x, y, base, src int, via Via, st *shape.Type) {
	toBase := pathOrAlias(m, x, base)
	fromSrc := pathOrAlias(m, src, y)
	if toBase == nil || fromSrc == nil {
		m.addRelAt(x, y, Rel{Kind: RelTop})
		return
	}
	full := append(append(Path{}, toBase...), Step{Field: via.Field, Min: 1})
	full = append(full, fromSrc...)
	if p, ok := canon(widenPath(full, st)); ok {
		m.addRelAt(x, y, Rel{Kind: RelPath, Path: p, Via: via})
	} else {
		m.addRelAt(x, y, Rel{Kind: RelTop})
	}
}

// pathOrAlias returns a path from variable p to q (by index) derivable from
// the matrix: the empty (zero-length) path when they must alias, a recorded
// path, or nil when no path form exists. A non-nil zero-length result uses
// an empty Path.
func pathOrAlias(m *Matrix, p, q int) Path {
	if p == q {
		return Path{}
	}
	e := m.at(p, q)
	var best Path
	found := false
	for i := range e {
		switch e[i].Kind {
		case RelAlias:
			return Path{}
		case RelPath:
			if !found || len(e[i].Path) < len(best) {
				best, found = e[i].Path, true
			}
		}
	}
	if found {
		return best
	}
	return nil
}

// removeOverwrittenEdge drops relations that described the old value of
// base->field (base is the index b, -1 when absent): paths leaving a
// must-alias of base through field, and relations tagged Via{base, field}.
// Relations merely containing field elsewhere lose certainty. Only cells
// holding a path can change; those go through the table's overwrite memo.
//
// When field has a backward partner the dropped relations demote to the
// unknown (Top) relation instead of vanishing: the old targets keep their
// backward edges, whose chain still reaches base's node in the heap, so a
// later backward load can re-alias them with base. An empty entry would
// claim that alias impossible.
func (t *transferer) removeOverwrittenEdge(m *Matrix, b int, base, field string, st *shape.Type) {
	backLinked := st != nil && st.BackwardPartner(field) != nil
	tab := m.writable()
	site := tab.site(base, field)
	t.demote = t.demote[:0]
	for i, row := range m.rows {
		fromMust := i == b || m.mustAliasAt(i, b)
		for j, id := range row {
			if tab.facts[id]&factPath == 0 {
				continue
			}
			out, dropped := tab.overwrite(id, fromMust, site, base, field)
			m.setID(i, j, out)
			if dropped && backLinked {
				t.demote = append(t.demote, [2]int{i, j})
			}
		}
	}
	// Outside the scan: addRel mirrors Top into the opposite cell, and the
	// load rules rely on that symmetry ("mirrored; handled above").
	for _, k := range t.demote {
		m.addRelAt(k[0], k[1], Rel{Kind: RelTop})
	}
}

func pathUsesField(p Path, field string) bool {
	for _, s := range p {
		if s.Field == field {
			return true
		}
	}
	return false
}

// clearRepairedViolations removes violations whose broken edge is being
// overwritten (the paper: "if another program statement fixes the
// relationship between these two fields, the entry is removed"). A store
// to any member of the partner's combined group counts as touching it.
// base is the index b, -1 when absent.
func (t *transferer) clearRepairedViolations(m *Matrix, b int, base, field string, st *shape.Type) {
	sameOrGrouped := func(f string) bool {
		if f == field {
			return true
		}
		return st != nil && st.SameGroup(f, field)
	}
	for v := range m.viols {
		touchesVar := v.Base == base || v.Other == base ||
			m.mustAliasAt(m.index(v.Base), b) || (v.Other != "" && m.mustAliasAt(m.index(v.Other), b))
		if touchesVar && (sameOrGrouped(v.Field) || (v.Partner != "" && sameOrGrouped(v.Partner))) {
			m.deleteViolation(v)
		}
	}
}

// validateStore checks the store against the declaration and records
// violations (Defs 4.2-4.9 encoded as path matrix conditions). b and s are
// the indices of base and src, -1 when absent. suspectCycle reports that
// the overwritten edge carried an outstanding acyclicity violation AND the
// new value was related to base in the pre-store matrix, which sharpens
// the cycle re-check below.
//
// The scans below test each row's and each column's variable against base
// or src once per store, collecting the columns that can matter into t.idx,
// and then look only at cells holding a path.
func (t *transferer) validateStore(m *Matrix, b, s int, base, field, src string, suspectCycle bool, fld *shape.Field, st *shape.Type) {
	if src == "" {
		return // removing an edge cannot break acyclicity or uniqueness
	}

	// Acyclicity (Def 4.2): a forward edge into a node that reaches base
	// along the same forward dimension closes a pure forward cycle.
	// Backward edges point at ancestors by design and are governed by the
	// Def 4.6 check below. Following the paper, only relationships the
	// matrix explicitly denotes trigger a violation; the unknown (Top)
	// relation between, say, two parameters does not.
	if fld.Dir == shape.Forward || fld.Dir == shape.UniquelyForward {
		// While the overwritten edge is known-cyclic, any recorded relation
		// between src and base may be a disguised alias (it was derived
		// while the abstraction was broken, e.g. a load through the cyclic
		// edge), so overwriting with a related value cannot prove the cycle
		// gone. From a valid state the same pattern is the ordinary node
		// deletion idiom (p->next = p->next->next) and stays violation-free.
		if src == base || forwardCycleRisk(m, s, b, fld, st) || suspectCycle {
			m.addViolation(Violation{Prop: "acyclic", Field: field, Base: base, Other: src})
		}
	}

	// Uniqueness and group disjointness (Defs 4.3, 4.7, 4.8): no other
	// recorded edge over the group's fields may already enter src's node.
	// The columns that matter are src and its explicit aliases.
	if fld.Dir == shape.UniquelyForward && s >= 0 {
		group := st.GroupOf(field)
		prop := "unique"
		if len(group) > 1 {
			prop = "group-disjoint"
		}
		t.idx = t.idx[:0]
		for z := range m.ix.names {
			if z == s || m.explicitAliasAt(z, s) {
				t.idx = append(t.idx, z)
			}
		}
		for i := range m.rows {
			if i == b || m.mustAliasAt(i, b) {
				continue // overwritten edge was already removed
			}
			for _, j := range t.idx {
				id := m.id(i, j)
				if m.tab.facts[id]&factPath == 0 {
					continue
				}
				for _, r := range m.tab.entries[id] {
					if r.Kind != RelPath {
						continue
					}
					last := r.Path[len(r.Path)-1]
					for _, g := range group {
						if last.Field == g && last.Min == 1 && !last.Plus && len(r.Path) == 1 {
							m.addViolation(Violation{
								Prop: prop, Field: field, Base: base, Other: m.ix.names[i],
							})
						}
					}
				}
			}
		}
	}

	// Backward consistency (Def 4.6).
	switch fld.Dir {
	case shape.Backward:
		// base->b = src is valid only if src is known to reach base by one
		// step of SOME forward partner (for grouped partners like
		// left/right, any member suffices). Anything weaker — including an
		// alias, which would make the backward edge a self-loop and is
		// definitely broken — records a (repairable) violation. This
		// conservatism is what keeps the mirror-based derivation rules
		// sound: they may rely on Def 4.6 only while no violation is
		// outstanding.
		partners := st.ForwardPartners(field)
		if len(partners) > 0 {
			e := m.at(s, b)
			ok := false
			first := partners[0]
			for _, r := range e {
				if r.Kind != RelPath || !r.Certain {
					continue // only a definite one-step path proves consistency
				}
				for _, uf := range partners {
					if exactOneStep(r.Path, uf.Name) {
						ok = true
					}
				}
				if exactOneStep(r.Path, DimField(first.Dim)) {
					ok = true // one widened forward step along the dimension
				}
			}
			if !ok {
				m.addViolation(Violation{
					Prop: "backward", Field: field, Partner: first.Name,
					Base: base, Other: src,
				})
			}
		}
	case shape.UniquelyForward, shape.Forward:
		// base->f = src: src's backward partner, if known, must point back
		// at base. The check reads no cell whose column may alias base,
		// and with a violation outstanding every column may, so it runs
		// only on a valid matrix and stops at its one violation.
		bp := st.BackwardPartner(field)
		if bp == nil || s < 0 || !m.Valid() {
			break
		}
		t.idx = t.idx[:0]
		for z := range m.ix.names {
			if z != b && !m.mayAliasAt(z, b) {
				t.idx = append(t.idx, z)
			}
		}
		for i := range m.rows {
			if i != s && !m.mustAliasAt(i, s) {
				continue
			}
			for _, j := range t.idx {
				id := m.id(i, j)
				if m.tab.facts[id]&factPath == 0 {
					continue
				}
				for _, r := range m.tab.entries[id] {
					if r.Kind == RelPath && r.Certain && exactOneStep(r.Path, bp.Name) {
						m.addViolation(Violation{
							Prop: "backward", Field: bp.Name, Partner: field,
							Base: base, Other: src,
						})
						return
					}
				}
			}
		}
	}
}

// forwardCycleRisk reports whether the matrix explicitly denotes that src's
// node (index s) reaches base's node (index b) purely along fld's forward
// dimension or equals it, so that storing base->fld = src would close a
// forward cycle. The caller handles src == base.
func forwardCycleRisk(m *Matrix, s, b int, fld *shape.Field, st *shape.Type) bool {
	if m.explicitAliasAt(s, b) {
		return true
	}
	for _, r := range m.at(s, b) {
		if r.Kind != RelPath {
			continue
		}
		pure := true
		for _, step := range r.Path {
			dir, dim, ok := stepInfo(st, step.Field)
			if !ok || dim != fld.Dim || !forwardish(dir) {
				pure = false
				break
			}
		}
		if pure {
			return true
		}
	}
	return false
}

// call transfers a call statement: a no-op for callees known not to mutate
// shape, compositionally via the callee's summary when one is available and
// the call site satisfies its entry assumptions, otherwise by the opaque
// havoc. Independently of which transfer runs, the call taints the caller's
// validity (an unrepairable "call" violation) whenever the callee could
// leave the structure breaking its declaration without that break being
// visible here — see callBreakRisk.
func (t *transferer) call(m *Matrix, s *norm.Stmt) {
	var eff *FuncEffects
	if t.summaries != nil {
		eff = t.summaries.Effects(s.Callee)
	}
	if eff != nil && !eff.ShapeMut {
		// The callee (and everything it calls, even recursively) performs
		// no pointer store or free: data writes cannot change pointer
		// relations or break the declared abstraction, and by-value
		// arguments mean caller bindings are untouched. The matrix carries
		// through the call verbatim.
		t.applied++
		return
	}
	risky := t.callBreakRisk(m, s, eff)
	if sum := t.callSummary(m, s); sum != nil {
		t.applied++
		t.applySummary(m, s, sum, eff)
	} else {
		if t.summaries != nil {
			t.fallbacks++
		}
		t.callHavoc(m, s.Args)
	}
	if risky {
		m.addViolation(Violation{Prop: "call", Base: s.Callee})
	}
}

// callBreakRisk reports whether the callee could leave caller-reachable
// structure violating its declaration in a way neither summary rows nor
// havoc represent (both only describe relations, not validity). The
// callee's own store validation ran under the generic entry state, where
// only explicitly denoted relations trigger violations; its exit-valid
// verdict therefore transfers to a call site only when the actuals are no
// more related than that generic state denotes — i.e. pairwise provably
// unrelated. Everything else is conservative: an unknown or recursive
// shape-mutating callee was never validated at all, and an exit-invalid
// one provably breaks even generic entries. Judged on the PRE-call matrix
// (the havoc relates every argument pair, which would make the test
// vacuous). The resulting "call" violation is deliberately unrepairable by
// later stores — the caller cannot know which links the callee broke.
func (t *transferer) callBreakRisk(m *Matrix, s *norm.Stmt, eff *FuncEffects) bool {
	if len(s.Args) == 0 {
		return false // no caller-reachable node escapes into the callee
	}
	if eff == nil {
		return true // havoc-only mode or out-of-program callee: nothing known
	}
	// eff.ShapeMut holds here; data-only calls returned before the risk test.
	sum := t.summaries.Lookup(s.Callee)
	if sum == nil || sum.ExitInvalid {
		return true // recursive (never validated) or breaks generic entries
	}
	if !m.Valid() {
		return true // absence of an entry no longer proves unrelatedness
	}
	for _, pos := range sum.FormalPos {
		if pos >= len(s.Bind) {
			return true // arity mismatch; the checker rejects this upstream
		}
	}
	for i := range sum.Formals {
		ai := s.Bind[sum.FormalPos[i]]
		if ai == "" {
			continue
		}
		for j := i + 1; j < len(sum.Formals); j++ {
			aj := s.Bind[sum.FormalPos[j]]
			if aj == "" {
				continue
			}
			if ai == aj || m.related(ai, aj) {
				return true
			}
		}
	}
	return false
}

// callSummary returns the callee's summary when the call site satisfies the
// summary's entry assumptions, nil to fall back to havoc:
//
//   - the callee must be summarized (non-recursive, in-program);
//   - the caller matrix must be violation-free — while the abstraction is
//     broken, an absent entry no longer proves two pointers unrelated, and
//     both preconditions below read absence as proof;
//   - actuals bound to formals of DIFFERENT record types must be provably
//     unrelated, because the generic entry state the summary was computed
//     from relates only same-record formals (initParams).
func (t *transferer) callSummary(m *Matrix, s *norm.Stmt) *FuncSummary {
	sum := t.summaries.Lookup(s.Callee)
	if sum == nil || !m.Valid() {
		return nil
	}
	for _, pos := range sum.FormalPos {
		if pos >= len(s.Bind) {
			return nil // arity mismatch; the checker rejects this upstream
		}
	}
	for i := range sum.Formals {
		ai := s.Bind[sum.FormalPos[i]]
		if ai == "" {
			continue
		}
		for j := i + 1; j < len(sum.Formals); j++ {
			if sum.FormalRecord[i] == sum.FormalRecord[j] {
				continue
			}
			aj := s.Bind[sum.FormalPos[j]]
			if aj != "" && m.related(ai, aj) {
				return nil
			}
		}
	}
	return sum
}

// typeTainted reports whether v's reachable type closure intersects the
// callee's write set — i.e. whether any path leaving v could route through
// a node the callee mutated. Unknown variables answer true.
func (t *transferer) typeTainted(v string, eff *FuncEffects) bool {
	rec, ok := t.varRecord[v]
	if !ok {
		return true
	}
	return t.summaries.reachIntersects(rec, eff.Writes)
}

// applySummary instantiates the callee's summary at the call site.
//
// Caller variable bindings are untouched by the call (by-value arguments,
// no globals, no pointer returns), so alias relations between caller
// variables are exactly preserved everywhere. Paths can change only by
// routing through a mutated node, and every node on a path from v has a
// type reachable from v's record type, so a pair both of whose sides are
// type-untainted is preserved verbatim. For pairs with a tainted side:
//
//   - pairs of actuals are REPLACED (both directions) by the callee's exit
//     rows between the corresponding entry-value shadows, alias relations
//     taken from the caller's own entries, which are exact;
//   - every other pair inside the affected set (arguments plus their
//     related variables, the same set the havoc touches) degrades to the
//     unknown relation, alias knowledge preserved — exactly the havoc's
//     per-pair effect.
//
// Pairs are always updated symmetrically: the load rules assume Alias/Top
// mirroring across directed cells. Pairs with an unaffected side need no
// update: an absent relation to every argument proves (violation-free
// matrix, checked by callSummary) the variable's structure is disjoint from
// everything the callee could reach.
func (t *transferer) applySummary(m *Matrix, s *norm.Stmt, sum *FuncSummary, eff *FuncEffects) {
	act := make([]string, len(sum.Formals))
	isActual := map[string]bool{}
	for i, pos := range sum.FormalPos {
		act[i] = s.Bind[pos]
		if act[i] != "" {
			isActual[act[i]] = true
		}
	}

	vars := t.affectedVars(m, s.Args)
	taint := make(map[string]bool, len(vars))
	for _, v := range vars {
		taint[v] = t.typeTainted(v, eff)
	}

	// Non-actual pairs (and actual/non-actual pairs): havoc-equivalent
	// degrade when either side is tainted.
	for i, x := range vars {
		for _, y := range vars[i+1:] {
			if isActual[x] && isActual[y] {
				continue
			}
			if taint[x] || taint[y] {
				m.addRel(x, y, Rel{Kind: RelTop})
			}
		}
	}

	// Actual pairs: instantiate the exit rows, both directions at once.
	for i, ai := range act {
		for j := i + 1; j < len(act); j++ {
			aj := act[j]
			if ai == "" || aj == "" || ai == aj {
				continue
			}
			if !taint[ai] && !taint[aj] {
				continue
			}
			t.instantiateRows(m, ai, aj,
				sum.Rows[[2]string{sum.Formals[i], sum.Formals[j]}],
				sum.Rows[[2]string{sum.Formals[j], sum.Formals[i]}])
		}
	}
}

// instantiateRows replaces the (ai, aj) and (aj, ai) entries with the
// callee's exit rows, keeping the caller's own alias relations (exact under
// value semantics) and dropping the rows' (weaker, generic-entry-derived)
// alias facts and callee-local Via provenance. If either rebuilt entry
// saturates to Top, the other gains Top too, preserving the mirroring
// invariant the load rules rely on.
func (t *transferer) instantiateRows(m *Matrix, ai, aj string, rowIJ, rowJI Entry) {
	build := func(old, row Entry) Entry {
		ne := Entry{}
		for _, r := range old {
			if r.Kind == RelAlias {
				ne = ne.add(r)
			}
		}
		for _, r := range row {
			if r.Kind != RelAlias {
				ne = ne.add(r)
			}
		}
		return ne
	}
	a := build(m.Entry(ai, aj), rowIJ)
	b := build(m.Entry(aj, ai), rowJI)
	if a.hasTop() {
		b = b.add(Rel{Kind: RelTop})
	} else if b.hasTop() {
		a = a.add(Rel{Kind: RelTop})
	}
	m.set(ai, aj, a)
	m.set(aj, ai, b)
}

// callHavoc havocs everything reachable from the pointer arguments: the
// callee may rearrange those structures arbitrarily. Havoc alone says
// nothing about whether the declaration still holds on return — that half
// of the call's effect is callBreakRisk's violation in call().
func (t *transferer) callHavoc(m *Matrix, args []string) {
	vars := t.affectedVars(m, args)
	for i, x := range vars {
		for _, y := range vars[i+1:] {
			m.addRel(x, y, Rel{Kind: RelTop})
		}
	}
}

// affectedVars returns, sorted, the call's arguments and every variable
// related to one of them: the variables whose pairs a call may change.
func (t *transferer) affectedVars(m *Matrix, args []string) []string {
	affected := map[string]bool{}
	for _, a := range args {
		affected[a] = true
		t.idx = m.appendRelated(t.idx[:0], m.index(a))
		for _, x := range t.idx {
			affected[m.ix.names[x]] = true
		}
	}
	vars := make([]string, 0, len(affected))
	for v := range affected {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return vars
}

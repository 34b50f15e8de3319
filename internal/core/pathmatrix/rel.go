package pathmatrix

import (
	"bytes"
	"cmp"
	"strings"
)

// RelKind classifies a matrix relation.
type RelKind int

// Relation kinds. Alias with Certain is the paper's "=", without Certain
// "=?". Top subsumes everything: possible alias and unknown paths.
const (
	RelAlias RelKind = iota
	RelPath
	RelTop
)

// Via identifies the store instruction family that materialized an
// edge-derived relation: a store through variable Var's field Field. When a
// later statement overwrites that edge (Var->Field = ...), relations tagged
// with the same Via are removed — this is the paper's Section 5.1.1
// mechanism for noticing that a temporarily broken abstraction has been
// repaired. A Via whose variable has since been reassigned is marked stale
// (Stale) and never removed.
type Via struct {
	Var   string
	Field string
	Stale bool
}

func (v Via) zero() bool { return v.Var == "" && v.Field == "" }

// Rel is one relation in a matrix entry.
type Rel struct {
	Kind    RelKind
	Certain bool // definite (present on all executions reaching here)
	Path    Path // for RelPath
	Via     Via  // optional provenance for edge-derived relations
}

// String renders the relation in the paper's notation.
func (r Rel) String() string {
	switch r.Kind {
	case RelAlias:
		if r.Certain {
			return "="
		}
		return "=?"
	case RelTop:
		return "??"
	case RelPath:
		s := r.Path.String()
		if !r.Certain {
			s += "?"
		}
		return s
	}
	return "<bad rel>"
}

// sameRel reports whether a and b are one relation up to certainty, the
// identity an entry holds each relation under: the kind, plus for paths the
// path and the Via tag. Two relations differing only in certainty merge.
func sameRel(a, b *Rel) bool {
	if a.Kind != b.Kind {
		return false
	}
	return a.Kind != RelPath || (a.Path.Equal(b.Path) && sameVia(a.Via, b.Via))
}

// sameVia compares provenance tags; an unset tag carries no staleness.
func sameVia(a, b Via) bool {
	if a.zero() || b.zero() {
		return a.zero() == b.zero()
	}
	return a == b
}

// sameSig reports whether a and b share a signature: same kind, and for paths
// the same field sequence (counts erased) and Via tag. The join matches
// relations by signature so that, e.g., next^1 on one branch and next^2 on
// the other merge into a certain next+ rather than two uncertain entries —
// exactly the paper's fixed-point entry for the shift loop.
func sameSig(a, b *Rel) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind != RelPath {
		return true
	}
	if len(a.Path) != len(b.Path) || !sameVia(a.Via, b.Via) {
		return false
	}
	for i := range a.Path {
		if a.Path[i].Field != b.Path[i].Field {
			return false
		}
	}
	return true
}

// appendKey appends the relation's sort key to dst: "=", "??", or the path
// key plus an optional "|via:Var.Field" suffix, "!" when stale.
func (r *Rel) appendKey(dst []byte) []byte {
	switch r.Kind {
	case RelAlias:
		return append(dst, '=')
	case RelTop:
		return append(dst, "??"...)
	}
	dst = r.Path.appendTo(dst, true)
	if r.Via.zero() {
		return dst
	}
	dst = append(dst, "|via:"...)
	dst = append(dst, r.Via.Var...)
	dst = append(dst, '.')
	dst = append(dst, r.Via.Field...)
	if r.Via.Stale {
		dst = append(dst, '!')
	}
	return dst
}

// relLess orders relations by their sort keys, bytewise. The keys are
// spelled into stack buffers, so ordering allocates nothing.
func relLess(a, b *Rel) bool {
	var abuf, bbuf [64]byte
	return bytes.Compare(a.appendKey(abuf[:0]), b.appendKey(bbuf[:0])) < 0
}

// Entry is a set of relations between two pointers, held as a slice sorted
// by relation key (see relLess): the order String, the JSON encoding and
// every matrix dump print. The nil entry means "no relation": provably not
// aliases (while the abstraction is valid). Entries are small — 1.2 to 1.4
// relations per non-empty cell on the bench corpora — so every operation is
// a linear scan. A matrix holds its entries interned in its run's entry
// table (table.go), where they are immutable.
type Entry []Rel

// entrySize caps relation sets; larger entries collapse to Top.
const entrySize = 8

// insert places r at its sorted position.
func (e Entry) insert(r Rel) Entry {
	i := 0
	for i < len(e) && relLess(&e[i], &r) {
		i++
	}
	e = append(e, Rel{})
	copy(e[i+1:], e[i:])
	e[i] = r
	return e
}

// hasTop reports whether the entry is saturated.
func (e Entry) hasTop() bool {
	for i := range e {
		if e[i].Kind == RelTop {
			return true
		}
	}
	return false
}

// add inserts a relation, merging certainty (certain wins on the same
// relation) and collapsing to Top when the entry grows too large. Alias
// relations and certain path relations survive saturation: Top means
// "unknown paths may exist", which cancels neither a known equality nor an
// edge a store provably created. Keeping certain paths is what lets Def 4.6
// backward validation succeed right after the forward half of a
// doubly-linked store pair even between Top-related pointers (e.g. a
// summary's generic formal entry). The entry must be the caller's to mutate;
// add returns the updated entry (possibly reallocated).
func (e Entry) add(r Rel) Entry {
	top := e.hasTop()
	if top && !r.survivesTop() {
		return e // saturated; only alias and certain-path facts still matter
	}
	if r.Kind == RelTop {
		return e.saturate()
	}
	for i := range e {
		if sameRel(&e[i], &r) {
			if r.Certain && !e[i].Certain {
				e[i] = r
			}
			return e
		}
	}
	e = e.insert(r)
	if !top && len(e) > entrySize {
		return e.saturate()
	}
	return e
}

// covers reports whether adding r would leave the entry unchanged, so a
// caller can skip a no-op write.
func (e Entry) covers(r Rel) bool {
	if r.Kind == RelTop {
		for i := range e {
			if e[i].Kind != RelTop && !e[i].survivesTop() {
				return false
			}
		}
		return e.hasTop()
	}
	for i := range e {
		if sameRel(&e[i], &r) {
			return e[i].Certain || !r.Certain
		}
	}
	return !r.survivesTop() && e.hasTop()
}

// survivesTop reports whether the relation carries information Top cannot
// subsume: a known equality, or a definitely-present path.
func (r *Rel) survivesTop() bool {
	return r.Kind == RelAlias || (r.Kind == RelPath && r.Certain)
}

// saturate collapses the entry, in place, to Top plus the facts Top cannot
// cancel.
func (e Entry) saturate() Entry {
	out := e[:0]
	for i := range e {
		if e[i].survivesTop() {
			out = append(out, e[i])
		}
	}
	return out.insert(Rel{Kind: RelTop})
}

// mustAlias reports whether the entry contains a definite alias. Other
// relations (paths, Top) describe possible extra connections and do not
// weaken a known equality.
func (e Entry) mustAlias() bool {
	for i := range e {
		if e[i].Kind == RelAlias {
			return e[i].Certain
		}
	}
	return false
}

// String renders the entry as a comma-separated relation list.
func (e Entry) String() string {
	if len(e) == 0 {
		return ""
	}
	var parts []string
	for _, r := range e {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ",")
}

// mergePaths widens two same-signature paths: per-step minimum count, plus
// whenever the steps differ or either had plus. Equal paths merge to
// themselves without rebuilding.
func mergePaths(a, b Path) Path {
	if a.Equal(b) {
		return a
	}
	out := make(Path, len(a))
	for i := range a {
		min := a[i].Min
		if b[i].Min < min {
			min = b[i].Min
		}
		out[i] = Step{
			Field: a[i].Field,
			Min:   min,
			Plus:  a[i].Plus || b[i].Plus || a[i].Min != b[i].Min,
		}
	}
	return out
}

// bySignature folds an entry into signature-canonical form, appending to
// buf (whose backing array lives on the caller's stack): same-signature path
// relations merge (certain if any constituent was certain, since each
// asserted a path of that signature).
func bySignature(e Entry, buf []Rel) []Rel {
	for _, r := range e {
		merged := false
		for i := range buf {
			if !sameSig(&buf[i], &r) {
				continue
			}
			old := buf[i]
			if r.Kind == RelPath {
				r.Path = mergePaths(old.Path, r.Path)
			}
			r.Certain = r.Certain || old.Certain
			buf[i] = r
			merged = true
			break
		}
		if !merged {
			buf = append(buf, r)
		}
	}
	return buf
}

// joinEntries merges two entries at a control-flow join, appending the
// result to dst. Relations are matched by signature: present on both sides
// stays certain if certain on both; present on one side only becomes
// uncertain.
func joinEntries(dst, a, b Entry) Entry {
	out := dst
	if len(a) == 0 && len(b) == 0 {
		return out
	}
	var abuf, bbuf [entrySize + 1]Rel
	sa := bySignature(a, abuf[:0])
	sb := bySignature(b, bbuf[:0])
	for _, ra := range sa {
		var rb Rel
		ok := false
		for _, r := range sb {
			if sameSig(&r, &ra) {
				rb, ok = r, true
				break
			}
		}
		if !ok {
			ra.Certain = false
			out = out.add(ra)
			continue
		}
		merged := ra
		if ra.Kind == RelPath {
			merged.Path = mergePaths(ra.Path, rb.Path)
		}
		merged.Certain = ra.Certain && rb.Certain
		out = out.add(merged)
	}
	for _, rb := range sb {
		found := false
		for _, ra := range sa {
			if sameSig(&ra, &rb) {
				found = true
				break
			}
		}
		if !found {
			rb.Certain = false
			out = out.add(rb)
		}
	}
	return out
}

// equalEntries reports whether two entries hold the same relations. Both are
// sorted, so they compare position by position. Within one entry table this
// is id equality; Equal uses it across tables.
func equalEntries(a, b Entry) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i := range a {
		if a[i].Certain != b[i].Certain || !sameRel(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// Violation records a detected break of the declared abstraction, tagged
// with the field whose property is violated so a repairing store can clear
// it (Section 5.1.1).
type Violation struct {
	Prop    string // "unique", "acyclic", "group-disjoint", "backward", "call"
	Field   string
	Partner string // paired field (Def 4.6); a store to it also repairs
	Base    string // variable whose store caused the violation; callee name for "call"
	Other   string // second variable involved, if any
}

// String renders the violation in !prop(detail) form.
func (v Violation) String() string {
	var buf [64]byte
	return string(v.appendTo(buf[:0]))
}

// compareViolations is the order of a matrix's violation set: by String
// form, then field by field, so violations that render alike still keep one
// order.
func compareViolations(a, b Violation) int {
	var ba, bb [64]byte
	if c := bytes.Compare(a.appendTo(ba[:0]), b.appendTo(bb[:0])); c != 0 {
		return c
	}
	return cmp.Or(
		strings.Compare(a.Prop, b.Prop),
		strings.Compare(a.Field, b.Field),
		strings.Compare(a.Partner, b.Partner),
		strings.Compare(a.Base, b.Base),
		strings.Compare(a.Other, b.Other),
	)
}

// appendTo appends the violation's String form to dst.
func (v Violation) appendTo(dst []byte) []byte {
	dst = append(dst, '!')
	dst = append(dst, v.Prop...)
	dst = append(dst, '(')
	switch {
	case v.Other != "":
		dst = append(dst, v.Field...)
		dst = append(dst, ';')
		dst = append(dst, v.Base...)
		dst = append(dst, ',')
		dst = append(dst, v.Other...)
	case v.Field == "":
		dst = append(dst, v.Base...) // "call" violations carry only the callee
	default:
		dst = append(dst, v.Field...)
	}
	return append(dst, ')')
}

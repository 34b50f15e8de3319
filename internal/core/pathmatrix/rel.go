package pathmatrix

import (
	"fmt"
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

// keyParts spells the relation's sort key — "=", "??", or the path key plus
// an optional "|via:Var.Field" suffix, "!" when stale — as pieces whose
// concatenation is the key, so ordering never builds the string.
func keyParts(r *Rel, buf *[6]string) []string {
	switch r.Kind {
	case RelAlias:
		buf[0] = "="
		return buf[:1]
	case RelTop:
		buf[0] = "??"
		return buf[:1]
	}
	buf[0] = r.Path.Key()
	if r.Via.zero() {
		return buf[:1]
	}
	buf[1], buf[2], buf[3], buf[4] = "|via:", r.Via.Var, ".", r.Via.Field
	if r.Via.Stale {
		buf[5] = "!"
		return buf[:6]
	}
	return buf[:5]
}

// relLess orders relations by their sort keys, bytewise.
func relLess(a, b *Rel) bool {
	var abuf, bbuf [6]string
	pa, pb := keyParts(a, &abuf), keyParts(b, &bbuf)
	i, j, ai, bj := 0, 0, 0, 0
	for {
		for i < len(pa) && ai == len(pa[i]) {
			i, ai = i+1, 0
		}
		for j < len(pb) && bj == len(pb[j]) {
			j, bj = j+1, 0
		}
		if i == len(pa) || j == len(pb) {
			return i == len(pa) && j < len(pb)
		}
		if ca, cb := pa[i][ai], pb[j][bj]; ca != cb {
			return ca < cb
		}
		ai, bj = ai+1, bj+1
	}
}

// Entry is a set of relations between two pointers, held as a slice sorted
// by relation key (see relLess): the order String, the JSON encoding and
// every matrix dump print. The nil entry means "no relation": provably not
// aliases (while the abstraction is valid). Entries are small — 1.2 to 1.4
// relations per non-empty cell on the bench corpora — so every operation is
// a linear scan.
type Entry []Rel

// entrySize caps relation sets; larger entries collapse to Top.
const entrySize = 8

// Canonical one-relation entries for the relations without a path: a cell
// that comes to hold exactly one of them shares it instead of allocating.
// Like every entry a matrix does not own, they are cloned before any
// mutation.
var (
	topEntry      = Entry{{Kind: RelTop}}
	aliasEntry    = Entry{{Kind: RelAlias, Certain: true}}
	mayAliasEntry = Entry{{Kind: RelAlias}}
)

// singleton returns the canonical entry holding exactly r, or nil.
func singleton(r Rel) Entry {
	if r.Kind == RelPath || len(r.Path) != 0 || r.Via != (Via{}) {
		return nil
	}
	switch {
	case r.Kind == RelTop && !r.Certain:
		return topEntry
	case r.Kind == RelAlias && r.Certain:
		return aliasEntry
	case r.Kind == RelAlias:
		return mayAliasEntry
	}
	return nil
}

// clone copies the entry with room for one more relation, the add that
// usually follows.
func (e Entry) clone() Entry {
	if e == nil {
		return nil
	}
	out := make(Entry, len(e), len(e)+1)
	copy(out, e)
	return out
}

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
// caller can skip cloning a shared entry for a no-op add.
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

// hasAliasInfo reports whether the entry admits aliasing (alias or top).
func (e Entry) hasAliasInfo() bool {
	for i := range e {
		if e[i].Kind == RelAlias || e[i].Kind == RelTop {
			return true
		}
	}
	return false
}

// hasAlias reports whether the entry holds an alias relation, certain or
// not ("=" or "=?", never the unknown Top).
func (e Entry) hasAlias() bool {
	for i := range e {
		if e[i].Kind == RelAlias {
			return true
		}
	}
	return false
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
// whenever the steps differ or either had plus. Identical (interned) paths
// merge to themselves without rebuilding.
func mergePaths(a, b Path) Path {
	if len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] {
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
	return Intern(out)
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

// joinEntries merges two entries at a control-flow join. Relations are
// matched by signature: present on both sides stays certain if certain on
// both; present on one side only becomes uncertain.
func joinEntries(a, b Entry) Entry {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	var abuf, bbuf [entrySize + 1]Rel
	sa := bySignature(a, abuf[:0])
	sb := bySignature(b, bbuf[:0])
	var obuf [entrySize + 1]Rel
	out := Entry(obuf[:0])
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
	if len(out) == 1 {
		if e := singleton(out[0]); e != nil {
			return e
		}
	}
	return append(make(Entry, 0, len(out)), out...)
}

// equalEntries compares entries for fixed-point detection. Both are sorted,
// so they compare position by position.
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
	detail := v.Field
	if v.Other != "" {
		detail += ";" + v.Base + "," + v.Other
	} else if detail == "" {
		detail = v.Base // "call" violations carry only the callee
	}
	return fmt.Sprintf("!%s(%s)", v.Prop, detail)
}

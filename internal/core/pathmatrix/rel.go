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

// key returns a canonical identity for set membership; certainty is not part
// of identity (two relations differing only in certainty merge).
func (r Rel) key() string {
	switch r.Kind {
	case RelAlias:
		return "="
	case RelTop:
		return "??"
	default:
		k := r.Path.Key()
		if !r.Via.zero() {
			k += "|via:" + r.Via.Var + "." + r.Via.Field
			if r.Via.Stale {
				k += "!"
			}
		}
		return k
	}
}

// Entry is a set of relations between two pointers. The nil entry means "no
// relation": provably not aliases (while the abstraction is valid).
type Entry map[string]Rel

// entrySize caps relation sets; larger entries collapse to Top.
const entrySize = 8

func (e Entry) clone() Entry {
	if e == nil {
		return nil
	}
	out := make(Entry, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// add inserts a relation, merging certainty (certain wins on same key) and
// collapsing to Top when the entry grows too large. Alias relations and
// certain path relations survive saturation: Top means "unknown paths may
// exist", which cancels neither a known equality nor an edge a store
// provably created. Keeping certain paths is what lets Def 4.6 backward
// validation succeed right after the forward half of a doubly-linked store
// pair even between Top-related pointers (e.g. a summary's generic formal
// entry). It returns the updated entry (possibly freshly allocated).
func (e Entry) add(r Rel) Entry {
	if e == nil {
		e = Entry{}
	}
	if _, isTop := e["??"]; isTop && !r.survivesTop() {
		return e // saturated; only alias and certain-path facts still matter
	}
	if r.Kind == RelTop {
		return e.saturate()
	}
	k := r.key()
	if old, ok := e[k]; ok {
		if r.Certain && !old.Certain {
			e[k] = r
		}
		return e
	}
	e[k] = r
	if _, isTop := e["??"]; !isTop && len(e) > entrySize {
		return e.saturate()
	}
	return e
}

// survivesTop reports whether the relation carries information Top cannot
// subsume: a known equality, or a definitely-present path.
func (r Rel) survivesTop() bool {
	return r.Kind == RelAlias || (r.Kind == RelPath && r.Certain)
}

// saturate collapses the entry to Top plus the facts Top cannot cancel.
func (e Entry) saturate() Entry {
	out := Entry{"??": {Kind: RelTop}}
	for k, r := range e {
		if r.survivesTop() {
			out[k] = r
		}
	}
	return out
}

// hasAliasInfo reports whether the entry admits aliasing (alias or top).
func (e Entry) hasAliasInfo() bool {
	for _, r := range e {
		if r.Kind == RelAlias || r.Kind == RelTop {
			return true
		}
	}
	return false
}

// mustAlias reports whether the entry contains a definite alias. Other
// relations (paths, Top) describe possible extra connections and do not
// weaken a known equality.
func (e Entry) mustAlias() bool {
	r, ok := e["="]
	return ok && r.Certain
}

// rels returns the relations in a stable order. Entries are small (entrySize
// caps them at 8 by default), so the keys are sorted in a stack buffer by
// insertion sort; only the returned slice is heap-allocated.
func (e Entry) rels() []Rel {
	switch len(e) {
	case 0:
		return nil
	case 1:
		for _, r := range e {
			return []Rel{r}
		}
	}
	var kbuf [8]string
	keys := kbuf[:0]
	for k := range e {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]Rel, len(keys))
	for i, k := range keys {
		out[i] = e[k]
	}
	return out
}

// String renders the entry as a comma-separated relation list.
func (e Entry) String() string {
	if len(e) == 0 {
		return ""
	}
	var parts []string
	for _, r := range e.rels() {
		parts = append(parts, r.String())
	}
	return strings.Join(parts, ",")
}

// sigKey returns the path's field signature (counts erased): the join
// matches relations by signature so that, e.g., next^1 on one branch and
// next^2 on the other merge into a certain next+ rather than two uncertain
// entries — exactly the paper's fixed-point entry for the shift loop.
func sigKey(r Rel) string {
	switch r.Kind {
	case RelAlias:
		return "="
	case RelTop:
		return "??"
	}
	k := r.Path.sig()
	if !r.Via.zero() {
		k += "|via:" + r.Via.Var + "." + r.Via.Field
		if r.Via.Stale {
			k += "!"
		}
	}
	return k
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

// sigRel pairs a relation with its signature key. Entries are small, so the
// join below matches signatures by linear scan over slices whose backing
// arrays live on the caller's stack, instead of building two throwaway maps.
type sigRel struct {
	sig string
	rel Rel
}

// bySignature folds an entry into signature-canonical form, appending to
// buf: same-signature path relations merge (certain if any constituent was
// certain, since each asserted a path of that signature).
func bySignature(e Entry, buf []sigRel) []sigRel {
	for _, r := range e {
		k := sigKey(r)
		merged := false
		for i := range buf {
			if buf[i].sig != k {
				continue
			}
			old := buf[i].rel
			if r.Kind == RelPath {
				r.Path = mergePaths(old.Path, r.Path)
			}
			r.Certain = r.Certain || old.Certain
			buf[i].rel = r
			merged = true
			break
		}
		if !merged {
			buf = append(buf, sigRel{k, r})
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
	var abuf, bbuf [8]sigRel
	sa := bySignature(a, abuf[:0])
	sb := bySignature(b, bbuf[:0])
	out := Entry{}
	for _, pa := range sa {
		ra := pa.rel
		var rb Rel
		ok := false
		for _, pb := range sb {
			if pb.sig == pa.sig {
				rb, ok = pb.rel, true
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
	for _, pb := range sb {
		found := false
		for _, pa := range sa {
			if pa.sig == pb.sig {
				found = true
				break
			}
		}
		if !found {
			rb := pb.rel
			rb.Certain = false
			out = out.add(rb)
		}
	}
	return out
}

// equalEntries compares entries for fixed-point detection.
func equalEntries(a, b Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for k, r := range a {
		o, ok := b[k]
		if !ok || o.Certain != r.Certain {
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

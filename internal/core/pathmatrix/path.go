// Package pathmatrix implements general path matrix analysis, the paper's
// core contribution (Section 5.1): a flow-sensitive alias analysis that
// tracks, for every pair of live pointer variables, the explicit paths and
// aliases between the nodes they point to, and consults the ADDS shape
// declaration to avoid manufacturing spurious cycles.
//
// The matrix entry PM(p, q) is a small set of relations: a definite alias
// ("="), a possible alias ("=?"), or a path expression such as "next+"
// meaning one or more next links lead from p's node to q's node. Empty
// entries are meaningful: as in the paper, all possible aliases are recorded
// explicitly, so an empty entry (in both directions) proves the two pointers
// are not aliases while the abstraction is valid.
package pathmatrix

import (
	"fmt"
	"strings"
)

// countCap is the widening bound on per-field traversal counts: a path with
// more than countCap repetitions of a field widens to "field^countCap+"
// (the paper's f^k+ widening, Section 5.1).
const countCap = 4

// maxSteps bounds the number of distinct steps in a path expression. Longer
// paths degrade to the Top relation (possible alias, unknown path), which is
// sound but imprecise.
const maxSteps = 4

// Step is one component of a path expression: Field traversed Min times,
// "or more" when Plus is set. Min is at least 1.
//
// A Field beginning with '~' is a dimension pseudo-field: "~down" means one
// forward step along dimension down by any of its forward fields. This is
// the paper's Section 5.1 widening for trees ("down is a conservative
// approximation for going either left or right").
type Step struct {
	Field string
	Min   int
	Plus  bool
}

// DimField returns the pseudo-field name for a forward step along dim.
func DimField(dim string) string { return "~" + dim }

// IsDimField reports whether the field is a dimension pseudo-field.
func IsDimField(f string) bool { return len(f) > 0 && f[0] == '~' }

// displayField renders the field: dimension pseudo-fields print as the bare
// dimension name, matching the paper's notation.
func displayField(f string) string {
	if IsDimField(f) {
		return f[1:]
	}
	return f
}

// String renders the step: next, next^2, next+, next^2+.
func (s Step) String() string {
	f := displayField(s.Field)
	switch {
	case s.Min == 1 && !s.Plus:
		return f
	case s.Min == 1 && s.Plus:
		return f + "+"
	case s.Plus:
		return fmt.Sprintf("%s^%d+", f, s.Min)
	default:
		return fmt.Sprintf("%s^%d", f, s.Min)
	}
}

// Path is a sequence of steps: "next^2.down+" means two next links then one
// or more down links. The zero-length path never appears in a relation
// (a zero-length path is an alias).
type Path []Step

// String renders the path with "." separators, memoized by the intern table.
func (p Path) String() string {
	if len(p) > 0 {
		return interner.metaOf(p).str
	}
	return ""
}

func (p Path) computeString() string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.String()
	}
	return strings.Join(parts, ".")
}

// Equal reports structural equality. Interned paths share one backing
// slice, so the slice-header comparison short-circuits the common case.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	if len(p) > 0 && &p[0] == &q[0] {
		return true
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical map key for the path. Unlike String it keeps the
// '~' marker of dimension pseudo-fields, so a pseudo-field never collides
// with a real field that happens to share the dimension's name. The key is
// memoized by the intern table.
func (p Path) Key() string {
	if len(p) > 0 {
		return interner.metaOf(p).key
	}
	return ""
}

func (p Path) computeKey() string {
	parts := make([]string, len(p))
	for i, s := range p {
		switch {
		case s.Min == 1 && !s.Plus:
			parts[i] = s.Field
		case s.Plus:
			parts[i] = fmt.Sprintf("%s^%d+", s.Field, s.Min)
		default:
			parts[i] = fmt.Sprintf("%s^%d", s.Field, s.Min)
		}
	}
	return strings.Join(parts, ".")
}

// single returns the one-step path f^1, interned. One-step paths are the
// most common path expression the transfer function builds, so they get
// their own field-keyed cache in front of the intern table.
func single(field string) Path {
	if v, ok := singleCache.Load(field); ok {
		return v.(Path)
	}
	p := Intern(Path{{Field: field, Min: 1}})
	singleCache.Store(field, p)
	return p
}

// canon merges adjacent steps over the same field and applies the count cap.
// It returns ok=false when the path exceeds maxSteps and the caller must
// degrade to Top. Already-canonical paths (the common case once expressions
// are interned) pass through without rebuilding.
func canon(p Path) (Path, bool) {
	isCanon := len(p) <= maxSteps
	for i := 0; isCanon && i < len(p); i++ {
		if p[i].Min > countCap || (i > 0 && p[i-1].Field == p[i].Field) {
			isCanon = false
		}
	}
	if isCanon {
		return Intern(p), true
	}
	out := make(Path, 0, len(p))
	for _, s := range p {
		if n := len(out); n > 0 && out[n-1].Field == s.Field {
			out[n-1].Min += s.Min
			out[n-1].Plus = out[n-1].Plus || s.Plus
		} else {
			out = append(out, s)
		}
	}
	for i := range out {
		if out[i].Min > countCap {
			out[i].Min = countCap
			out[i].Plus = true
		}
	}
	if len(out) > maxSteps {
		return nil, false
	}
	return Intern(out), true
}

// concat appends q to p and canonicalizes. ok=false means Top.
func concat(p, q Path) (Path, bool) {
	joined := make(Path, 0, len(p)+len(q))
	joined = append(joined, p...)
	joined = append(joined, q...)
	return canon(joined)
}

// stripResult describes what remains of a path after removing one traversal
// of a field from one end.
type stripResult struct {
	alias bool // removal may leave a zero-length path (nodes equal)
	path  Path // non-empty remainder, nil if none
	ok    bool // false: the path cannot lose that field from that end
}

// stripLeading removes one leading traversal of field from the path
// (used for p = q->f given a path from q). For a leading step f^k the
// remainder starts with f^(k-1); f^1 exactly disappears; f+ yields both the
// alias possibility (k was 1) and the remainder f+ shortened by one, i.e.
// f^0+ which we render as "maybe-alias plus f+ path".
func stripLeading(p Path, field string) []stripResult {
	if len(p) == 0 || p[0].Field != field {
		return []stripResult{{ok: false}}
	}
	head, rest := p[0], p[1:]
	var out []stripResult
	switch {
	case head.Min == 1 && !head.Plus:
		if len(rest) == 0 {
			out = append(out, stripResult{alias: true, ok: true})
		} else {
			out = append(out, stripResult{path: Intern(rest), ok: true})
		}
	case head.Min == 1 && head.Plus:
		// One step consumed: either that was the last (alias with rest),
		// or at least one more remains (f+ again).
		if len(rest) == 0 {
			out = append(out, stripResult{alias: true, ok: true})
		} else {
			out = append(out, stripResult{path: Intern(rest), ok: true})
		}
		remainder := append(Path{{Field: field, Min: 1, Plus: true}}, rest...)
		out = append(out, stripResult{path: Intern(remainder), ok: true})
	default: // Min >= 2
		remainder := append(Path{{Field: field, Min: head.Min - 1, Plus: head.Plus}}, rest...)
		out = append(out, stripResult{path: Intern(remainder), ok: true})
		if head.Plus {
			// Min-1 could also be exceeded; already covered by Plus remainder.
			_ = remainder
		}
	}
	return out
}

// stripTrailing removes one trailing traversal of field (used for backward
// steps: p = q->b where paths into q end with the forward partner).
func stripTrailing(p Path, field string) []stripResult {
	if len(p) == 0 || p[len(p)-1].Field != field {
		return []stripResult{{ok: false}}
	}
	reversed := reversePath(p)
	var out []stripResult
	for _, r := range stripLeading(reversed, field) {
		if !r.ok {
			out = append(out, r)
			continue
		}
		out = append(out, stripResult{alias: r.alias, path: Intern(reversePath(r.path)), ok: true})
	}
	return out
}

func reversePath(p Path) Path {
	if p == nil {
		return nil
	}
	out := make(Path, len(p))
	for i, s := range p {
		out[len(p)-1-i] = s
	}
	return out
}

// startsWith reports whether the path begins by traversing field.
func (p Path) startsWith(field string) bool {
	return len(p) > 0 && p[0].Field == field
}

// endsWith reports whether the path ends by traversing field.
func (p Path) endsWith(field string) bool {
	return len(p) > 0 && p[len(p)-1].Field == field
}

// Fields returns the set of fields the path traverses.
func (p Path) Fields() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range p {
		if !seen[s.Field] {
			seen[s.Field] = true
			out = append(out, s.Field)
		}
	}
	return out
}

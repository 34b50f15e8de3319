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

import "strconv"

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

// Path is a sequence of steps: "next^2.down+" means two next links then one
// or more down links. The zero-length path never appears in a relation
// (a zero-length path is an alias).
//
// A path is an immutable value: once built it is never mutated or appended
// to, because any number of matrices, cached summaries and goroutines may
// share it. Every operation here that changes a path builds a new slice.
type Path []Step

// String renders the path in the paper's notation with "." separators:
// next, next^2, next+, next^2+, and dimension pseudo-fields by their bare
// dimension name (down+).
func (p Path) String() string {
	if len(p) == 0 {
		return ""
	}
	var buf [64]byte
	return string(p.appendTo(buf[:0], false))
}

// Key returns a canonical map key for the path. Unlike String it keeps the
// '~' marker of dimension pseudo-fields, so a pseudo-field never collides
// with a real field that happens to share the dimension's name, and it
// spells f+ as f^1+.
func (p Path) Key() string {
	if len(p) == 0 {
		return ""
	}
	var buf [64]byte
	return string(p.appendTo(buf[:0], true))
}

// appendTo appends the path's key form (key set) or display form to dst.
func (p Path) appendTo(dst []byte, key bool) []byte {
	for i, s := range p {
		if i > 0 {
			dst = append(dst, '.')
		}
		if key {
			dst = append(dst, s.Field...)
		} else {
			dst = append(dst, displayField(s.Field)...)
		}
		if s.Min != 1 || (s.Plus && key) {
			dst = append(dst, '^')
			dst = strconv.AppendInt(dst, int64(s.Min), 10)
		}
		if s.Plus {
			dst = append(dst, '+')
		}
	}
	return dst
}

// Equal reports structural equality.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// single returns the one-step path f^1, the most common path expression the
// transfer function builds.
func single(field string) Path {
	return Path{{Field: field, Min: 1}}
}

// canon merges adjacent steps over the same field and applies the count cap.
// It returns ok=false when the path exceeds maxSteps and the caller must
// degrade to Top. An already-canonical path is returned as is.
func canon(p Path) (Path, bool) {
	isCanon := len(p) <= maxSteps
	for i := 0; isCanon && i < len(p); i++ {
		if p[i].Min > countCap || (i > 0 && p[i-1].Field == p[i].Field) {
			isCanon = false
		}
	}
	if isCanon {
		return p, true
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
	return out, true
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
	return stripEnd(p, 0, p[1:])
}

// stripTrailing removes one trailing traversal of field (used for backward
// steps: p = q->b where paths into q end with the forward partner).
func stripTrailing(p Path, field string) []stripResult {
	n := len(p)
	if n == 0 || p[n-1].Field != field {
		return []stripResult{{ok: false}}
	}
	return stripEnd(p, n-1, p[:n-1:n-1])
}

// stripEnd removes one traversal of the end step p[i] (the first or the
// last), where rest is p without that step.
func stripEnd(p Path, i int, rest Path) []stripResult {
	if s := p[i]; s.Min == 1 {
		// One step consumed: either that was the last (alias with rest),
		// or, under f+, at least one more remains (f+ again: p itself).
		out := []stripResult{{alias: true, ok: true}}
		if len(rest) > 0 {
			out[0] = stripResult{path: rest, ok: true}
		}
		if s.Plus {
			out = append(out, stripResult{path: p, ok: true})
		}
		return out
	}
	q := append(Path(nil), p...)
	q[i].Min--
	return []stripResult{{path: q, ok: true}}
}

// startsWith reports whether the path begins by traversing field.
func (p Path) startsWith(field string) bool {
	return len(p) > 0 && p[0].Field == field
}

// endsWith reports whether the path ends by traversing field.
func (p Path) endsWith(field string) bool {
	return len(p) > 0 && p[len(p)-1].Field == field
}

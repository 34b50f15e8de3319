package pathmatrix

import "repro/internal/jsonw"

// AppendJSON appends the matrix's wire encoding to dst: display variables
// in declaration order, non-empty cells sorted by (p, q), relations in the
// package's stable order, violations sorted by their rendering. It is the
// one encoding shared by the addsd responses and addsc -format json, and it
// only reads the matrix, so matrices of a frozen run encode concurrently.
func (m *Matrix) AppendJSON(dst []byte) []byte {
	var vb [32]string
	vars := m.displayVars(vb[:0])
	if len(vars) == 0 {
		vars = nil // a matrix without variables has "vars": null
	}
	dst = append(dst, `{"vars":`...)
	dst = jsonw.Strings(dst, vars)
	dst = append(dst, `,"cells":[`...)
	first := true
	for _, i := range m.ix.byName {
		for _, j := range m.ix.byName {
			e := m.at(i, j)
			if len(e) == 0 {
				continue
			}
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, `{"p":`...)
			dst = jsonw.String(dst, m.ix.names[i])
			dst = append(dst, `,"q":`...)
			dst = jsonw.String(dst, m.ix.names[j])
			dst = append(dst, `,"rels":`...)
			dst = appendRels(dst, e)
			dst = append(dst, '}')
		}
	}
	dst = append(dst, ']')
	if len(m.viols) > 0 {
		var buf [64]byte
		dst = append(dst, `,"violations":[`...)
		for k, v := range m.viols {
			if k > 0 {
				dst = append(dst, ',')
			}
			dst = jsonw.String(dst, v.appendTo(buf[:0]))
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"valid":`...)
	dst = jsonw.Bool(dst, m.Valid())
	return append(dst, '}')
}

// appendRels appends the wire form of an entry's relations: kind "alias",
// "path" or "top", whether the relation is certain, and for a path its
// display form ("next^2", "next+").
func appendRels(dst []byte, e Entry) []byte {
	dst = append(dst, '[')
	for k := range e {
		r := &e[k]
		if k > 0 {
			dst = append(dst, ',')
		}
		switch r.Kind {
		case RelAlias:
			dst = append(dst, `{"kind":"alias","certain":`...)
			dst = jsonw.Bool(dst, r.Certain)
		case RelTop:
			dst = append(dst, `{"kind":"top","certain":false`...)
		default:
			dst = append(dst, `{"kind":"path","certain":`...)
			dst = jsonw.Bool(dst, r.Certain)
			var buf [64]byte
			if p := r.Path.appendTo(buf[:0], false); len(p) > 0 {
				dst = append(dst, `,"path":`...)
				dst = jsonw.String(dst, p)
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// MarshalJSON is AppendJSON for encoding/json, through which callers that
// marshal the facade's and the wire package's types encode matrices.
func (m *Matrix) MarshalJSON() ([]byte, error) { return m.AppendJSON(nil), nil }

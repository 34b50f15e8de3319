package depgraph

import "repro/internal/jsonw"

// AppendJSON appends the graph's wire encoding to dst: the oracle name, the
// body instructions in their S-numbered rendering, and the edges in
// construction order, which is deterministic for a given program and
// oracle. Control edges are included (unlike String, which drops them as
// listing noise) so consumers can rebuild the full graph. It is the
// encoding shared by addsd responses and addsc -format json.
func (g *Graph) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"oracle":`...)
	dst = jsonw.String(dst, g.Oracle)
	dst = append(dst, `,"body":[`...)
	var buf [64]byte
	for i, in := range g.Body {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonw.String(dst, in.AppendTo(buf[:0]))
	}
	dst = append(dst, `],"edges":[`...)
	for i, e := range g.Edges {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"from":`...)
		dst = jsonw.Int(dst, e.From)
		dst = append(dst, `,"to":`...)
		dst = jsonw.Int(dst, e.To)
		dst = append(dst, `,"kind":`...)
		dst = jsonw.String(dst, e.Kind.String())
		if e.Carried {
			dst = append(dst, `,"carried":true`...)
		}
		if e.Must {
			dst = append(dst, `,"must":true`...)
		}
		if e.Mem {
			dst = append(dst, `,"mem":true`...)
		}
		dst = append(dst, `,"loc":`...)
		dst = jsonw.String(dst, e.Loc)
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// MarshalJSON is AppendJSON for encoding/json, through which callers that
// marshal the facade's and the wire package's types encode graphs.
func (g *Graph) MarshalJSON() ([]byte, error) { return g.AppendJSON(nil), nil }

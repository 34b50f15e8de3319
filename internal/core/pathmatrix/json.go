package pathmatrix

import "encoding/json"

// relJSON is the wire form of one relation. Kind is "alias", "path", or
// "top"; Path carries the paper's display form ("next^2", "next+") for path
// relations only.
type relJSON struct {
	Kind    string `json:"kind"`
	Certain bool   `json:"certain"`
	Path    string `json:"path,omitempty"`
}

// cellJSON is the wire form of one non-empty matrix cell PM(p, q).
type cellJSON struct {
	P    string    `json:"p"`
	Q    string    `json:"q"`
	Rels []relJSON `json:"rels"`
}

// matrixJSON is the wire form of a Matrix.
type matrixJSON struct {
	Vars       []string   `json:"vars"`
	Cells      []cellJSON `json:"cells"`
	Violations []string   `json:"violations,omitempty"`
	Valid      bool       `json:"valid"`
}

func relToJSON(r Rel) relJSON {
	switch r.Kind {
	case RelAlias:
		return relJSON{Kind: "alias", Certain: r.Certain}
	case RelTop:
		return relJSON{Kind: "top"}
	default:
		return relJSON{Kind: "path", Certain: r.Certain, Path: r.Path.String()}
	}
}

// MarshalJSON renders the matrix deterministically: display variables in
// declaration order, non-empty cells sorted by (p, q), relations in the
// package's stable order, violations sorted by their rendering. It is the
// one encoding shared by the addsd responses and addsc -format json.
func (m *Matrix) MarshalJSON() ([]byte, error) {
	out := matrixJSON{
		Vars:  m.displayVars(),
		Cells: []cellJSON{},
		Valid: m.Valid(),
	}
	for _, i := range m.ix.byName {
		for _, j := range m.ix.byName {
			e := m.at(i, j)
			if len(e) == 0 {
				continue
			}
			rj := make([]relJSON, len(e))
			for k, r := range e {
				rj[k] = relToJSON(r)
			}
			out.Cells = append(out.Cells, cellJSON{P: m.ix.names[i], Q: m.ix.names[j], Rels: rj})
		}
	}
	for _, v := range m.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	return json.Marshal(out)
}

package xform

import "repro/internal/jsonw"

// AppendJSON appends the pipelining analysis's wire encoding to dst, the
// encoding shared by addsd responses and addsc -format json. Carried memory
// dependences are rendered as their display strings; the structured edges
// are available through the dependence-graph encoding when needed.
// Theoretic is always finite: AnalyzePipeline divides by an II of at least 1.
func (i PipelineInfo) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"bodyOps":`...)
	dst = jsonw.Int(dst, i.BodyOps)
	dst = append(dst, `,"resMII":`...)
	dst = jsonw.Int(dst, i.ResMII)
	dst = append(dst, `,"recMII":`...)
	dst = jsonw.Int(dst, i.RecMII)
	dst = append(dst, `,"ii":`...)
	dst = jsonw.Int(dst, i.II)
	dst = append(dst, `,"stages":`...)
	dst = jsonw.Int(dst, i.Stages)
	dst = append(dst, `,"theoreticalSpeedup":`...)
	dst = jsonw.Float(dst, i.Theoretic)
	dst = append(dst, `,"carriedMem":[`...)
	for k, e := range i.CarriedMem {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = jsonw.String(dst, e.String())
	}
	dst = append(dst, `],"ok":`...)
	dst = jsonw.Bool(dst, i.OK)
	return append(dst, '}')
}

// MarshalJSON is AppendJSON for encoding/json, through which callers that
// marshal the facade's and the wire package's types encode pipelining
// analyses.
func (i PipelineInfo) MarshalJSON() ([]byte, error) { return i.AppendJSON(nil), nil }

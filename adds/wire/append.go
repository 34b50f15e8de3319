package wire

import "repro/internal/jsonw"

// The cached /v1 responses append their own encoding: the bytes
// json.Marshal writes for them, in one pass, with the core types'
// AppendJSON writers inlined rather than called through MarshalJSON and
// compacted again. No type here has a MarshalJSON method: addsc embeds
// *AnalyzeResponse in a struct of its own, where a promoted MarshalJSON
// would replace that struct's encoding and drop its other fields.

// AppendJSON appends the response's encoding to dst.
func (r *AnalyzeResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"engineVersion":`...)
	dst = jsonw.String(dst, r.EngineVersion)
	dst = append(dst, `,"functions":`...)
	dst = appendSlice(dst, r.Functions, (*FunctionResult).appendJSON)
	return append(dst, '}')
}

func (f *FunctionResult) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"name":`...)
	dst = jsonw.String(dst, f.Name)
	dst = append(dst, `,"loops":`...)
	dst = jsonw.Int(dst, f.Loops)
	dst = append(dst, `,"entryMatrix":`...)
	dst = appendValue(dst, f.Entry)
	dst = append(dst, `,"exitMatrix":`...)
	dst = appendValue(dst, f.Exit)
	dst = append(dst, `,"loopResults":`...)
	dst = appendSlice(dst, f.LoopData, (*LoopResult).appendJSON)
	dst = append(dst, `,"validation":{"validEverywhere":`...)
	dst = jsonw.Bool(dst, f.Validation.ValidEverywhere)
	dst = append(dst, `,"intervals":`...)
	dst = jsonw.Strings(dst, f.Validation.Intervals)
	dst = append(dst, `},"oracleComparison":`...)
	dst = appendSlice(dst, f.Oracles, (*OracleComparison).appendJSON)
	return append(dst, '}')
}

func (l *LoopResult) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = jsonw.Int(dst, l.Index)
	dst = append(dst, `,"matrix":`...)
	dst = appendValue(dst, l.Matrix)
	dst = append(dst, `,"iteration":`...)
	dst = appendValue(dst, l.Iteration)
	dst = append(dst, `,"dependences":`...)
	dst = appendValue(dst, l.Dependences)
	dst = append(dst, `,"carriedMemEdges":`...)
	dst = jsonw.Int(dst, l.CarriedMemEdges)
	return append(dst, '}')
}

func (o *OracleComparison) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"oracle":`...)
	dst = jsonw.String(dst, o.Oracle)
	dst = append(dst, `,"loop":`...)
	dst = jsonw.Int(dst, o.Loop)
	dst = append(dst, `,"carriedMemEdges":`...)
	dst = jsonw.Int(dst, o.CarriedMemEdges)
	return append(dst, '}')
}

// AppendJSON appends the response's encoding to dst.
func (r *DepgraphResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"engineVersion":`...)
	dst = jsonw.String(dst, r.EngineVersion)
	dst = append(dst, `,"fn":`...)
	dst = jsonw.String(dst, r.Fn)
	dst = append(dst, `,"oracle":`...)
	dst = jsonw.String(dst, r.Oracle)
	dst = append(dst, `,"loops":`...)
	dst = appendSlice(dst, r.Loops, (*LoopDeps).appendJSON)
	return append(dst, '}')
}

func (l *LoopDeps) appendJSON(dst []byte) []byte {
	dst = append(dst, `{"index":`...)
	dst = jsonw.Int(dst, l.Index)
	dst = append(dst, `,"dependences":`...)
	dst = appendValue(dst, l.Dependences)
	dst = append(dst, `,"carriedMemEdges":`...)
	dst = jsonw.Int(dst, l.CarriedMemEdges)
	return append(dst, '}')
}

// AppendJSON appends the response's encoding to dst.
func (r *PipelineResponse) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"engineVersion":`...)
	dst = jsonw.String(dst, r.EngineVersion)
	dst = append(dst, `,"fn":`...)
	dst = jsonw.String(dst, r.Fn)
	dst = append(dst, `,"loop":`...)
	dst = jsonw.Int(dst, r.Loop)
	dst = append(dst, `,"width":`...)
	dst = jsonw.Int(dst, r.Width)
	dst = append(dst, `,"info":`...)
	dst = r.Info.AppendJSON(dst)
	if r.VLIW != "" {
		dst = append(dst, `,"vliw":`...)
		dst = jsonw.String(dst, r.VLIW)
	}
	if r.PipelineError != "" {
		dst = append(dst, `,"pipelineError":`...)
		dst = jsonw.String(dst, r.PipelineError)
	}
	return append(dst, '}')
}

// appendValue appends v's encoding, or null for a nil pointer, as
// json.Marshal does.
func appendValue[P interface {
	comparable
	AppendJSON([]byte) []byte
}](dst []byte, v P) []byte {
	var null P
	if v == null {
		return append(dst, "null"...)
	}
	return v.AppendJSON(dst)
}

// appendSlice appends s as a JSON array of elements written by each, or
// null for a nil slice, as json.Marshal does.
func appendSlice[T any](dst []byte, s []T, each func(*T, []byte) []byte) []byte {
	if s == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i := range s {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = each(&s[i], dst)
	}
	return append(dst, ']')
}

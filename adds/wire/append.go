package wire

import "repro/internal/jsonw"

// The cached /v1 responses append their own encoding: the bytes
// json.Marshal writes for them, in one pass, with the core types'
// AppendJSON writers inlined rather than called through MarshalJSON and
// compacted again. AppendCLI writes addsc's document the same way.
//
// The writers of the types addsc prints take the string writer for their
// own string fields: jsonw.String for the daemon, which escapes '<', '>'
// and '&' as json.Marshal does, and jsonw.StringNoHTML for addsc, whose
// json.Encoder wrote these fields without HTML escaping. The core types'
// writers always escape: the encoder copied their MarshalJSON bytes, so
// "a->next" stayed "a-\u003enext" in addsc's output too.
//
// No type here has a MarshalJSON method: the benchmark's frozen walk embeds
// *AnalyzeResponse in a struct of its own to encode addsc's document, where
// a promoted MarshalJSON would replace that struct's encoding and drop its
// pipelines.

// stringWriter appends one string: jsonw.String or jsonw.StringNoHTML.
type stringWriter = func([]byte, string) []byte

// AppendJSON appends the response's encoding to dst.
func (r *AnalyzeResponse) AppendJSON(dst []byte) []byte {
	return append(r.appendFields(dst, jsonw.String[string]), '}')
}

// AppendCLI appends the document addsc -format json prints, compact: the
// fields of r, then pipelines when there are any, with the strings of these
// wire types not HTML-escaped. jsonw.Indent lays it out as addsc prints it.
func AppendCLI(dst []byte, r *AnalyzeResponse, pipelines []*PipelineResponse) []byte {
	str := jsonw.StringNoHTML[string]
	dst = r.appendFields(dst, str)
	if len(pipelines) > 0 {
		dst = append(dst, `,"pipelines":[`...)
		for i, p := range pipelines {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = p.appendJSON(dst, str)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendFields appends r's encoding without its closing brace.
func (r *AnalyzeResponse) appendFields(dst []byte, str stringWriter) []byte {
	dst = append(dst, `{"engineVersion":`...)
	dst = str(dst, r.EngineVersion)
	dst = append(dst, `,"functions":`...)
	return appendSlice(dst, r.Functions, func(f *FunctionResult, dst []byte) []byte {
		return f.appendJSON(dst, str)
	})
}

func (f *FunctionResult) appendJSON(dst []byte, str stringWriter) []byte {
	dst = append(dst, `{"name":`...)
	dst = str(dst, f.Name)
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
	dst = jsonw.StringsWith(dst, f.Validation.Intervals, str)
	dst = append(dst, `},"oracleComparison":`...)
	dst = appendSlice(dst, f.Oracles, func(o *OracleComparison, dst []byte) []byte {
		return o.appendJSON(dst, str)
	})
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

func (o *OracleComparison) appendJSON(dst []byte, str stringWriter) []byte {
	dst = append(dst, `{"oracle":`...)
	dst = str(dst, o.Oracle)
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
	return r.appendJSON(dst, jsonw.String[string])
}

func (r *PipelineResponse) appendJSON(dst []byte, str stringWriter) []byte {
	dst = append(dst, `{"engineVersion":`...)
	dst = str(dst, r.EngineVersion)
	dst = append(dst, `,"fn":`...)
	dst = str(dst, r.Fn)
	dst = append(dst, `,"loop":`...)
	dst = jsonw.Int(dst, r.Loop)
	dst = append(dst, `,"width":`...)
	dst = jsonw.Int(dst, r.Width)
	dst = append(dst, `,"info":`...)
	dst = r.Info.AppendJSON(dst)
	if r.VLIW != "" {
		dst = append(dst, `,"vliw":`...)
		dst = str(dst, r.VLIW)
	}
	if r.PipelineError != "" {
		dst = append(dst, `,"pipelineError":`...)
		dst = str(dst, r.PipelineError)
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

package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// SpanJSON is the wire form of one span in a rendered trace: ids as hex,
// the duration in both nanoseconds (exact) and milliseconds (human), and
// attributes as an object.
type SpanJSON struct {
	ID       string         `json:"id"`
	Parent   string         `json:"parent,omitempty"`
	Name     string         `json:"name"`
	StartRFC string         `json:"start"`
	DurNanos int64          `json:"durNanos"`
	DurMS    float64        `json:"durMs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// TraceJSON is the wire form of GET /debug/trace/{id} and addsc
// -trace -format json: the trace id plus the span forest (roots in start
// order, children nested).
type TraceJSON struct {
	TraceID string      `json:"traceId"`
	Spans   []*SpanJSON `json:"spans"`
}

// ToJSON builds the nested wire form of a trace snapshot.
func ToJSON(t *Trace) *TraceJSON {
	if t == nil {
		return nil
	}
	out := &TraceJSON{TraceID: t.ID.String(), Spans: buildForest(t.Snapshot(), toSpanJSON)}
	return out
}

func toSpanJSON(rec SpanRecord, children []*SpanJSON) *SpanJSON {
	sp := &SpanJSON{
		ID:       rec.ID.String(),
		Name:     rec.Name,
		StartRFC: rec.Start.UTC().Format(time.RFC3339Nano),
		DurNanos: rec.Dur.Nanoseconds(),
		DurMS:    float64(rec.Dur) / float64(time.Millisecond),
		Children: children,
	}
	if rec.Parent != (SpanID{}) {
		sp.Parent = rec.Parent.String()
	}
	if len(rec.Attrs) > 0 {
		sp.Attrs = make(map[string]any, len(rec.Attrs))
		for _, a := range rec.Attrs {
			sp.Attrs[a.Key] = a.Value
		}
	}
	return sp
}

// buildForest nests spans under their parents. Orphans (parent not in the
// snapshot, e.g. evicted or still open) surface as roots, never vanish.
func buildForest[T any](spans []SpanRecord, mk func(SpanRecord, []T) T) []T {
	children := map[SpanID][]SpanRecord{}
	present := map[SpanID]bool{}
	for _, s := range spans {
		present[s.ID] = true
	}
	var roots []SpanRecord
	for _, s := range spans {
		if s.Parent != (SpanID{}) && present[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	var build func(s SpanRecord) T
	build = func(s SpanRecord) T {
		kids := children[s.ID]
		out := make([]T, 0, len(kids))
		for _, k := range kids {
			out = append(out, build(k))
		}
		if len(out) == 0 {
			out = nil
		}
		return mk(s, out)
	}
	out := make([]T, 0, len(roots))
	for _, r := range roots {
		out = append(out, build(r))
	}
	return out
}

// WriteTree renders the trace as an indented text span tree:
//
//	analyze                         12.40ms
//	  parse                          1.02ms
//	  fixpoint                       9.31ms  iterations=42
//
// Durations are right-padded per line; attributes print key=value in
// insertion order.
func WriteTree(w io.Writer, t *Trace) {
	if t == nil {
		return
	}
	fmt.Fprintf(w, "trace %s\n", t.ID)
	var walk func(sp *spanText, depth int)
	walk = func(sp *spanText, depth int) {
		indent := strings.Repeat("  ", depth)
		line := fmt.Sprintf("%s%s", indent, sp.rec.Name)
		if pad := 32 - len(line); pad > 0 {
			line += strings.Repeat(" ", pad)
		}
		fmt.Fprintf(w, "%s %9.2fms", line, float64(sp.rec.Dur)/float64(time.Millisecond))
		for _, a := range sp.rec.Attrs {
			fmt.Fprintf(w, "  %s=%v", a.Key, a.Value)
		}
		fmt.Fprintln(w)
		for _, c := range sp.children {
			walk(c, depth+1)
		}
	}
	for _, root := range buildForest(t.Snapshot(), func(rec SpanRecord, children []*spanText) *spanText {
		return &spanText{rec: rec, children: children}
	}) {
		walk(root, 0)
	}
}

type spanText struct {
	rec      SpanRecord
	children []*spanText
}

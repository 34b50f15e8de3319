package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/adds/wire"
	"repro/internal/core/pathmatrix"
	"repro/internal/depgraph"
	"repro/internal/exper"
	"repro/internal/gen"
	"repro/internal/norm"
	"repro/internal/respond"
	"repro/internal/xform"
)

// The reflective encoding the append writers replaced, kept here as the
// reference they must reproduce byte for byte. It reads the core types
// only through their exported API.

type relJSON struct {
	Kind    string `json:"kind"`
	Certain bool   `json:"certain"`
	Path    string `json:"path,omitempty"`
}

type cellJSON struct {
	P    string    `json:"p"`
	Q    string    `json:"q"`
	Rels []relJSON `json:"rels"`
}

type matrixJSON struct {
	Vars       []string   `json:"vars"`
	Cells      []cellJSON `json:"cells"`
	Violations []string   `json:"violations,omitempty"`
	Valid      bool       `json:"valid"`
}

type edgeJSON struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Kind    string `json:"kind"`
	Carried bool   `json:"carried,omitempty"`
	Must    bool   `json:"must,omitempty"`
	Mem     bool   `json:"mem,omitempty"`
	Loc     string `json:"loc"`
}

type graphJSON struct {
	Oracle string     `json:"oracle"`
	Body   []string   `json:"body"`
	Edges  []edgeJSON `json:"edges"`
}

type pipelineInfoJSON struct {
	BodyOps    int      `json:"bodyOps"`
	ResMII     int      `json:"resMII"`
	RecMII     int      `json:"recMII"`
	II         int      `json:"ii"`
	Stages     int      `json:"stages"`
	Theoretic  float64  `json:"theoreticalSpeedup"`
	CarriedMem []string `json:"carriedMem"`
	OK         bool     `json:"ok"`
}

type reportJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes"`
	Figures []string   `json:"figures"`
}

// The /v1 responses with the reference encodings in place of the core
// types.

type refAnalyze struct {
	EngineVersion string        `json:"engineVersion"`
	Functions     []refFunction `json:"functions"`
}

type refFunction struct {
	Name       string                  `json:"name"`
	Loops      int                     `json:"loops"`
	Entry      *matrixJSON             `json:"entryMatrix"`
	Exit       *matrixJSON             `json:"exitMatrix"`
	LoopData   []refLoop               `json:"loopResults"`
	Validation wire.ValidationResult   `json:"validation"`
	Oracles    []wire.OracleComparison `json:"oracleComparison"`
}

type refLoop struct {
	Index           int         `json:"index"`
	Matrix          *matrixJSON `json:"matrix"`
	Iteration       *matrixJSON `json:"iteration"`
	Dependences     *graphJSON  `json:"dependences"`
	CarriedMemEdges int         `json:"carriedMemEdges"`
}

type refDepgraph struct {
	EngineVersion string        `json:"engineVersion"`
	Fn            string        `json:"fn"`
	Oracle        string        `json:"oracle"`
	Loops         []refLoopDeps `json:"loops"`
}

type refLoopDeps struct {
	Index           int        `json:"index"`
	Dependences     *graphJSON `json:"dependences"`
	CarriedMemEdges int        `json:"carriedMemEdges"`
}

type refPipeline struct {
	EngineVersion string           `json:"engineVersion"`
	Fn            string           `json:"fn"`
	Loop          int              `json:"loop"`
	Width         int              `json:"width"`
	Info          pipelineInfoJSON `json:"info"`
	VLIW          string           `json:"vliw,omitempty"`
	PipelineError string           `json:"pipelineError,omitempty"`
}

// mapSlice maps s through f, keeping a nil slice nil.
func mapSlice[T, U any](s []T, f func(*T) U) []U {
	if s == nil {
		return nil
	}
	out := make([]U, len(s))
	for i := range s {
		out[i] = f(&s[i])
	}
	return out
}

func refMatrix(m *pathmatrix.Matrix) *matrixJSON {
	if m == nil {
		return nil
	}
	names := slices.Clone(m.Vars())
	out := &matrixJSON{Cells: []cellJSON{}, Valid: m.Valid()}
	for _, v := range names {
		used := false
		for _, w := range names {
			used = used || len(m.Entry(v, w)) > 0 || len(m.Entry(w, v)) > 0
		}
		if !norm.IsTemp(v) || used {
			out.Vars = append(out.Vars, v)
		}
	}
	slices.Sort(names)
	names = slices.Compact(names)
	for _, p := range names {
		for _, q := range names {
			e := m.Entry(p, q)
			if len(e) == 0 {
				continue
			}
			rels := make([]relJSON, len(e))
			for k, r := range e {
				switch r.Kind {
				case pathmatrix.RelAlias:
					rels[k] = relJSON{Kind: "alias", Certain: r.Certain}
				case pathmatrix.RelTop:
					rels[k] = relJSON{Kind: "top"}
				default:
					rels[k] = relJSON{Kind: "path", Certain: r.Certain, Path: r.Path.String()}
				}
			}
			out.Cells = append(out.Cells, cellJSON{P: p, Q: q, Rels: rels})
		}
	}
	for _, v := range m.Violations() {
		out.Violations = append(out.Violations, v.String())
	}
	return out
}

func refGraph(g *depgraph.Graph) *graphJSON {
	if g == nil {
		return nil
	}
	out := &graphJSON{Oracle: g.Oracle, Body: []string{}, Edges: []edgeJSON{}}
	for _, in := range g.Body {
		out.Body = append(out.Body, in.String())
	}
	for _, e := range g.Edges {
		out.Edges = append(out.Edges, edgeJSON{
			From: e.From, To: e.To, Kind: e.Kind.String(),
			Carried: e.Carried, Must: e.Must, Mem: e.Mem, Loc: e.Loc,
		})
	}
	return out
}

func refPipelineInfo(i xform.PipelineInfo) pipelineInfoJSON {
	out := pipelineInfoJSON{
		BodyOps: i.BodyOps, ResMII: i.ResMII, RecMII: i.RecMII,
		II: i.II, Stages: i.Stages, Theoretic: i.Theoretic,
		CarriedMem: []string{}, OK: i.OK,
	}
	for _, e := range i.CarriedMem {
		out.CarriedMem = append(out.CarriedMem, e.String())
	}
	return out
}

func nonNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

func refReport(r *exper.Report) reportJSON {
	return reportJSON{
		ID: r.ID, Title: r.Title, Claim: r.Claim,
		Headers: nonNil(r.Headers), Rows: nonNil(r.Rows),
		Notes: nonNil(r.Notes), Figures: nonNil(r.Figures),
	}
}

func refAnalyzeOf(r *wire.AnalyzeResponse) refAnalyze {
	return refAnalyze{EngineVersion: r.EngineVersion, Functions: mapSlice(r.Functions, func(f *wire.FunctionResult) refFunction {
		return refFunction{
			Name: f.Name, Loops: f.Loops, Entry: refMatrix(f.Entry), Exit: refMatrix(f.Exit),
			LoopData: mapSlice(f.LoopData, func(l *wire.LoopResult) refLoop {
				return refLoop{Index: l.Index, Matrix: refMatrix(l.Matrix), Iteration: refMatrix(l.Iteration),
					Dependences: refGraph(l.Dependences), CarriedMemEdges: l.CarriedMemEdges}
			}),
			Validation: f.Validation, Oracles: f.Oracles,
		}
	})}
}

func refDepgraphOf(r *wire.DepgraphResponse) refDepgraph {
	return refDepgraph{EngineVersion: r.EngineVersion, Fn: r.Fn, Oracle: r.Oracle,
		Loops: mapSlice(r.Loops, func(l *wire.LoopDeps) refLoopDeps {
			return refLoopDeps{Index: l.Index, Dependences: refGraph(l.Dependences), CarriedMemEdges: l.CarriedMemEdges}
		})}
}

func refPipelineOf(r *wire.PipelineResponse) refPipeline {
	return refPipeline{EngineVersion: r.EngineVersion, Fn: r.Fn, Loop: r.Loop, Width: r.Width,
		Info: refPipelineInfo(r.Info), VLIW: r.VLIW, PipelineError: r.PipelineError}
}

// checkEncoding compares the body the daemon caches for resp with the
// reference encoding of ref, as bytes and as decoded values. It also checks
// the MarshalJSON wrappers: json.Marshal of resp, which encodes the core
// types through them, must give the same bytes.
func checkEncoding(t *testing.T, name string, resp response, ref any) {
	t.Helper()
	got := encode(resp)
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("%s: reference encoding: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: append encoding differs from the reference\ngot:  %s\nwant: %s", name, got, want)
	}
	var gv, wv any
	if err := json.Unmarshal(got, &gv); err != nil {
		t.Fatalf("%s: append encoding is not JSON: %v", name, err)
	}
	if err := json.Unmarshal(want, &wv); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gv, wv) {
		t.Errorf("%s: decoded values differ", name)
	}
	viaWrappers, err := json.Marshal(resp)
	if err != nil {
		t.Fatalf("%s: json.Marshal: %v", name, err)
	}
	if !bytes.Equal(viaWrappers, got) {
		t.Errorf("%s: json.Marshal through the MarshalJSON wrappers differs from the append encoding", name)
	}
}

// scalarSrc has no pointer variable, so its matrices have "vars": null.
const scalarSrc = `
void f(int n) {
    int i;
    i = 0;
    while (i < n) {
        i = i + 1;
    }
}
`

// equivalenceSources returns every generator profile at seeds 1–10, the
// testdata programs and scalarSrc.
func equivalenceSources(t *testing.T) (names, sources []string) {
	names, sources = []string{"scalar"}, []string{scalarSrc}
	for _, pr := range gen.Profiles() {
		for seed := int64(1); seed <= 10; seed++ {
			names = append(names, fmt.Sprintf("%s/%d", pr.Name, seed))
			sources = append(sources, string(gen.Generate(seed, pr).Source()))
		}
	}
	files, err := filepath.Glob("../../testdata/*.mini")
	if err != nil || len(files) == 0 {
		t.Fatalf("testdata programs: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, filepath.Base(f))
		sources = append(sources, string(src))
	}
	return names, sources
}

// TestWireEncodingEquivalence pins the append writers to the reflective
// encoding they replaced: every /v1/analyze body of the generated and
// testdata programs under four oracles, the /v1/depgraph and /v1/pipeline
// bodies of each function's loops, and the E1–E10 experiment reports.
func TestWireEncodingEquivalence(t *testing.T) {
	ctx := context.Background()
	names, sources := equivalenceSources(t)
	for i, src := range sources {
		for _, oracle := range []string{"gpm", "classic", "klimit", "smg"} {
			name := names[i] + "/" + oracle
			resp, err := respond.BuildAnalyze(ctx, &wire.AnalyzeRequest{Source: src, Oracle: oracle})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkEncoding(t, name+"/analyze", resp, refAnalyzeOf(resp))
			if oracle != "gpm" {
				continue // the depgraph and pipeline writers are oracle-blind
			}
			for _, fr := range resp.Functions {
				if fr.Loops == 0 {
					continue
				}
				dg, err := respond.BuildDepgraph(ctx, &wire.DepgraphRequest{Source: src, Fn: fr.Name, Oracle: oracle})
				if err != nil {
					t.Fatalf("%s/%s: depgraph: %v", name, fr.Name, err)
				}
				checkEncoding(t, name+"/"+fr.Name+"/depgraph", dg, refDepgraphOf(dg))
				for loop := 0; loop < fr.Loops; loop++ {
					p, err := respond.BuildPipeline(ctx, &wire.PipelineRequest{Source: src, Fn: fr.Name, Loop: loop, Oracle: oracle})
					if err != nil {
						t.Fatalf("%s/%s/%d: pipeline: %v", name, fr.Name, loop, err)
					}
					checkEncoding(t, fmt.Sprintf("%s/%s/%d/pipeline", name, fr.Name, loop), p, refPipelineOf(p))
				}
			}
		}
	}
	for i := 1; i <= 10; i++ {
		rep := exper.ByID(fmt.Sprintf("E%d", i))
		checkEncoding(t, rep.ID, rep, refReport(rep))
	}
}

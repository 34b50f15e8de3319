// Package wire defines the JSON request and response shapes of the adds
// daemon's /v1 API, promoted out of the server so clients can marshal and
// unmarshal them without importing internal packages. The daemon and addsc
// build these types (internal/respond), so the wire format cannot drift
// between the server and a client built against this package; the encoded
// bytes are pinned by the goldens under adds/testdata/golden.
package wire

import (
	"encoding/json"

	"repro/adds"
)

// AnalyzeRequest asks for path matrix analysis of one function (Fn set) or
// every function of the source. The zero values select the defaults the
// CLIs use: the GPM oracle, one worker per CPU.
type AnalyzeRequest struct {
	Source  string `json:"source"`
	Fn      string `json:"fn,omitempty"`
	Oracle  string `json:"oracle,omitempty"` // gpm (default), classic, conservative, klimit
	K       int    `json:"k,omitempty"`      // k for the klimit oracle
	Workers int    `json:"workers,omitempty"`
}

// LoopResult is the per-loop slice of an analysis: the fixed-point matrix,
// the primed iteration matrix, and the dependence graph under the selected
// oracle.
type LoopResult struct {
	Index           int            `json:"index"`
	Matrix          *adds.Matrix   `json:"matrix"`
	Iteration       *adds.Matrix   `json:"iteration"`
	Dependences     *adds.DepGraph `json:"dependences"`
	CarriedMemEdges int            `json:"carriedMemEdges"`
}

// OracleComparison reports, per loop, how many carried memory dependences
// each oracle leaves — the paper's headline comparison.
type OracleComparison struct {
	Oracle          string `json:"oracle"`
	Loop            int    `json:"loop"`
	CarriedMemEdges int    `json:"carriedMemEdges"`
}

// ValidationResult summarizes the Section 5.1.1 abstraction validation.
type ValidationResult struct {
	ValidEverywhere bool     `json:"validEverywhere"`
	Intervals       []string `json:"intervals"`
}

// FunctionResult is one function's analysis artifacts.
type FunctionResult struct {
	Name       string             `json:"name"`
	Loops      int                `json:"loops"`
	Entry      *adds.Matrix       `json:"entryMatrix"`
	Exit       *adds.Matrix       `json:"exitMatrix"`
	LoopData   []LoopResult       `json:"loopResults"`
	Validation ValidationResult   `json:"validation"`
	Oracles    []OracleComparison `json:"oracleComparison"`
}

// AnalyzeResponse is the full analysis answer, stamped with the engine
// version that produced it.
type AnalyzeResponse struct {
	EngineVersion string           `json:"engineVersion"`
	Functions     []FunctionResult `json:"functions"`
}

// DepgraphRequest asks for the dependence graphs of one function's loops
// under an oracle — the standalone form of the per-loop graphs embedded in
// an AnalyzeResponse, for callers that want dependences without matrices.
type DepgraphRequest struct {
	Source string `json:"source"`
	Fn     string `json:"fn"`
	Loop   *int   `json:"loop,omitempty"` // nil = every loop
	Oracle string `json:"oracle,omitempty"`
	K      int    `json:"k,omitempty"`
}

// LoopDeps is one loop's dependence graph in a DepgraphResponse.
type LoopDeps struct {
	Index           int            `json:"index"`
	Dependences     *adds.DepGraph `json:"dependences"`
	CarriedMemEdges int            `json:"carriedMemEdges"`
}

// DepgraphResponse carries the requested loops' dependence graphs.
type DepgraphResponse struct {
	EngineVersion string     `json:"engineVersion"`
	Fn            string     `json:"fn"`
	Oracle        string     `json:"oracle"`
	Loops         []LoopDeps `json:"loops"`
}

// PipelineRequest asks for initiation-interval bounds and the pipelined
// VLIW schedule of one loop.
type PipelineRequest struct {
	Source string `json:"source"`
	Fn     string `json:"fn"`
	Loop   int    `json:"loop"`
	Width  int    `json:"width,omitempty"` // default 8
	Oracle string `json:"oracle,omitempty"`
	K      int    `json:"k,omitempty"`
}

// PipelineResponse carries the II bounds and, when the loop pipelines, the
// bundled VLIW code. A legal-but-unpipelinable loop is not an HTTP error:
// PipelineError says why and VLIW stays empty.
type PipelineResponse struct {
	EngineVersion string            `json:"engineVersion"`
	Fn            string            `json:"fn"`
	Loop          int               `json:"loop"`
	Width         int               `json:"width"`
	Info          adds.PipelineInfo `json:"info"`
	VLIW          string            `json:"vliw,omitempty"`
	PipelineError string            `json:"pipelineError,omitempty"`
}

// ExperimentDef is one registry row of GET /v1/experiments.
type ExperimentDef struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// OracleInfo is one registry row of GET /v1/oracles: an alias oracle the
// daemon can run, in the order the tools present them. AcceptsK marks the
// oracles whose precision is tuned by the request's "k" field.
type OracleInfo struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	AcceptsK    bool   `json:"acceptsK"`
}

// ErrorEnvelope is the JSON error body every endpoint shares: a message
// plus optional locators (the offending JSON field for 400s, the source
// position for 422s). /v1/batch embeds it per item.
type ErrorEnvelope struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
}

// BatchRequest asks POST /v1/batch to analyze many programs in one request.
// Each item is a full AnalyzeRequest; results stream back as NDJSON, one
// BatchItemResult line per item, in item order, flushed as each completes.
type BatchRequest struct {
	Items []AnalyzeRequest `json:"items"`
}

// BatchItemResult is one NDJSON line of a /v1/batch response. Status is the
// HTTP status the item would have received as a standalone request; exactly
// one of Response and Error is set. The line carries no cache/shard
// telemetry on purpose: for a fixed item list the bytes are deterministic
// regardless of which shard answered or how warm its cache was.
type BatchItemResult struct {
	Index    int             `json:"index"`
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    *ErrorEnvelope  `json:"error,omitempty"`
}

// ReanalyzeRequest asks POST /v1/reanalyze to re-run whole-program analysis
// and report how much interprocedural summary work the content-addressed
// cache absorbed. Submitting a source, editing one function, and submitting
// again yields computed == 1 (the edited body re-keys) with every untouched
// function's summary reused.
type ReanalyzeRequest struct {
	Source  string `json:"source"`
	Workers int    `json:"workers,omitempty"`
}

// SummaryStats reports one run's summary-cache behavior: summaries computed
// (cache misses: new or changed function bodies) and reused (hits).
type SummaryStats struct {
	Computed int `json:"computed"`
	Reused   int `json:"reused"`
}

// ReanalyzeResponse names the functions analyzed and the summary-cache
// counters of this run. Unlike AnalyzeResponse it is never served from the
// daemon's response cache: the counters describe the run that produced them.
type ReanalyzeResponse struct {
	EngineVersion string       `json:"engineVersion"`
	Functions     []string     `json:"functions"`
	Summaries     SummaryStats `json:"summaries"`
}

package adds

import "repro/internal/core/pathmatrix"

// Engine-level introspection, re-exported so observability and
// benchmarking tools never import internal packages directly.

// EngineStats counts analysis engine work: fixpoint runs and iterations,
// matrix clones, shared rows, and summary-cache traffic. See
// pathmatrix.Stats for field semantics.
type EngineStats = pathmatrix.Stats

// ReadEngineStats returns the sums of every completed fixpoint run and
// summary pass since process start. Each run adds its own counts once, when
// it ends; the same counts are its span's attributes.
func ReadEngineStats() EngineStats { return pathmatrix.ReadStats() }

// ResetEngineSummaryCache empties the process-wide content-addressed summary
// cache (cold-cache benchmarks and tests that assert cache-miss counts).
func ResetEngineSummaryCache() { pathmatrix.ResetSummaryCache() }

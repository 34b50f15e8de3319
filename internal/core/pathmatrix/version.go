package pathmatrix

import "sync/atomic"

// EngineVersion stamps analysis results produced by this package. It is part
// of the content-addressed cache key in internal/service AND of the summary
// cache key in summary.go: bump it whenever a change alters analysis output
// for the same input (transfer functions, join, widening, path
// canonicalization), so stale cached results can never be served for the
// new engine.
//
// gpm-3: multi-level deduplication (shared join entries, memoized transfer
// functions, optional liveness-based row dropping). Output is byte-identical
// to gpm-2 with default settings, but cache keys now embed engine tunables
// and the bump keeps pre-dedup daemon caches from being replayed.
//
// gpm-4: compositional interprocedural analysis. Calls to summarized callees
// apply a per-function entry-shape → exit-effect summary instead of the
// all-args havoc (summary.go), the call transfer binds every pointer-valued
// argument (field-path arguments previously escaped the havoc), and call
// statements carry their callee name. Output changes for multi-function
// programs, so pre-summary caches must not be replayed.
//
// gpm-5: the store transfer's structure merge no longer skips pairs that
// were already related — an existing entry says nothing about the new path
// through the just-written edge, and the skip let stale relations mask real
// aliases (soundness bug found by the repair-profile differential campaign;
// see store in transfer.go). Entries can gain relations, so matrices, wire
// bodies, and report digests change for programs with re-linking stores.
const EngineVersion = "gpm-5"

// Stats is a snapshot of engine-wide counters since process start. The
// counters are monotone and cheap (one atomic add per event) unless noted;
// they feed the service /metrics endpoint and capacity debugging.
type Stats struct {
	Analyses      uint64 // completed function and summary fixpoint runs
	Iterations    uint64 // fixed-point worklist iterations across all runs
	Widenings     uint64 // nodes forcibly widened after exhausting the budget
	Clones        uint64 // COW matrix clones across all runs
	InternedPaths uint64 // distinct paths in the intern table (gauge)
	SharedRows    uint64 // join cells shared pointer-equal with a parent

	// Deprecated: always 0; the engine has no transfer memo.
	MemoHits uint64
	// Deprecated: always 0; the engine has no transfer memo.
	MemoMisses uint64
	// Deprecated: always 0; the engine does not fingerprint rows.
	DedupRows uint64

	SummaryComputed  uint64 // function summaries computed (cache misses)
	SummaryReused    uint64 // function summaries served from the cache
	SummaryEntries   uint64 // cached function summaries right now (gauge)
	SummaryApplied   uint64 // call sites transferred via a summary
	SummaryFallbacks uint64 // call sites that fell back to havoc (recursion, preconditions)
}

var engineStats struct {
	analyses   atomic.Uint64
	iterations atomic.Uint64
	widenings  atomic.Uint64
	clones     atomic.Uint64
	sharedRows atomic.Uint64

	summaryComputed  atomic.Uint64
	summaryReused    atomic.Uint64
	summaryApplied   atomic.Uint64
	summaryFallbacks atomic.Uint64
}

// ReadStats returns the engine counters. InternedPaths and SummaryEntries
// are read from their tables at call time, so they reflect current sizes
// rather than running totals.
func ReadStats() Stats {
	return Stats{
		Analyses:      engineStats.analyses.Load(),
		Iterations:    engineStats.iterations.Load(),
		Widenings:     engineStats.widenings.Load(),
		Clones:        engineStats.clones.Load(),
		InternedPaths: uint64(InternerStats()),
		SharedRows:    engineStats.sharedRows.Load(),

		SummaryComputed:  engineStats.summaryComputed.Load(),
		SummaryReused:    engineStats.summaryReused.Load(),
		SummaryEntries:   uint64(summaryCacheLen()),
		SummaryApplied:   engineStats.summaryApplied.Load(),
		SummaryFallbacks: engineStats.summaryFallbacks.Load(),
	}
}

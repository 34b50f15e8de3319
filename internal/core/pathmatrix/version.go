package pathmatrix

import "sync"

// EngineVersion stamps analysis results produced by this package. It is part
// of the content-addressed cache key (respond.Key) AND of the summary
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

// Stats counts engine work. Each function or summary fixpoint run and each
// summary pass counts its own work in one Stats value, which becomes its
// fixpoint or summaries span's attributes and is added once, when the run
// ends, to the process-wide sums that ReadStats returns. Cancelled runs and
// IterationMatrix runs add nothing.
type Stats struct {
	Analyses   uint64 // completed function and summary fixpoint runs
	Iterations uint64 // fixed-point worklist iterations
	Widenings  uint64 // nodes forcibly widened after exhausting the budget
	Clones     uint64 // COW matrix clones the solver made
	SharedRows uint64 // join cells shared pointer-equal with a parent

	// Deprecated: always 0; paths are plain values, not interned.
	InternedPaths uint64
	// Deprecated: always 0. The engine memoizes entry rewrites per run,
	// and reports their hits as fixpoint span attributes, not here.
	MemoHits uint64
	// Deprecated: always 0, like MemoHits.
	MemoMisses uint64
	// Deprecated: always 0; the engine does not fingerprint rows.
	DedupRows uint64

	SummaryComputed  uint64 // function summaries computed (cache misses)
	SummaryReused    uint64 // function summaries served from the cache
	SummaryEntries   uint64 // cached function summaries right now (gauge)
	SummaryApplied   uint64 // call sites transferred via a summary
	SummaryFallbacks uint64 // call sites that fell back to havoc (recursion, preconditions)
}

// engine holds the process-wide sums of every recorded run.
var engine struct {
	mu  sync.Mutex
	sum Stats
}

// record adds one run's or summary pass's counts to the process-wide sums.
// It is the only writer of those sums.
func record(s Stats) {
	engine.mu.Lock()
	defer engine.mu.Unlock()
	t := &engine.sum
	t.Analyses += s.Analyses
	t.Iterations += s.Iterations
	t.Widenings += s.Widenings
	t.Clones += s.Clones
	t.SharedRows += s.SharedRows
	t.SummaryComputed += s.SummaryComputed
	t.SummaryReused += s.SummaryReused
	t.SummaryApplied += s.SummaryApplied
	t.SummaryFallbacks += s.SummaryFallbacks
}

// ReadStats returns the sums of every run recorded since process start.
// SummaryEntries is read from the summary cache at call time, so it
// reflects the current size rather than a running total.
func ReadStats() Stats {
	engine.mu.Lock()
	s := engine.sum
	engine.mu.Unlock()
	s.SummaryEntries = uint64(summaryCacheLen())
	return s
}

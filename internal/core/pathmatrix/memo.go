package pathmatrix

import (
	"strconv"
	"strings"
	"sync"

	"repro/internal/lru"
	"repro/internal/norm"
)

// Process-wide transfer-function memo. A transfer function is pure: its
// output is determined by the input matrix content, the statement, and the
// shape environment. The memo is keyed on exactly those — engine version,
// environment fingerprint, statement content, input-matrix fingerprint — so
// a hit may be served across analysis runs, across functions, and across
// goroutines. That is where the wins are: a single fixed-point run rarely
// revisits a node with an input it has seen before (the worklist already
// skips unchanged states), but repeated analyses of the same or similar
// code hit constantly.

// memoCap bounds the number of cached transfer results (across all shards).
// Evicted entries are dropped to the garbage collector, never recycled into
// the matrix pools: their cell maps may be shared with live results.
const memoCap = 4096

const memoShards = 16

// memoShard is one lock-striped slice of the memo. Cached matrices are
// frozen: shared flags set, never mutated, never released.
type memoShard struct {
	mu  sync.Mutex
	lru *lru.Cache[string, *Matrix]
}

var memo [memoShards]memoShard

func init() { memoReset() }

// memoShardOf picks a shard by the key's last byte. Keys end with the raw
// input fingerprint digest, so the low byte is uniformly distributed.
func memoShardOf(key string) *memoShard {
	if len(key) == 0 {
		return &memo[0]
	}
	return &memo[key[len(key)-1]%memoShards]
}

func memoGet(key string) (*Matrix, bool) {
	s := memoShardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Get(key)
}

// memoPut caches m under key; a concurrent miss on the same key keeps the
// first result.
func memoPut(key string, m *Matrix) {
	s := memoShardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lru.Add(key, m)
}

// memoLen returns the current number of cached transfer results.
func memoLen() int {
	n := 0
	for i := range memo {
		memo[i].mu.Lock()
		n += memo[i].lru.Len()
		memo[i].mu.Unlock()
	}
	return n
}

// memoReset empties the memo (tests).
func memoReset() {
	for i := range memo {
		memo[i].mu.Lock()
		memo[i].lru = lru.New[string, *Matrix](memoCap / memoShards)
		memo[i].mu.Unlock()
	}
}

// cloneFrozen builds a COW view of a cached matrix without writing the
// donor. The normal Clone marks the donor shared, which would race when many
// goroutines hit the same cached entry; frozen matrices already have their
// shared flags set permanently, so only the new header is written. The
// caller's variable list is substituted: fingerprints ignore variables, so a
// hit may come from a function with a different declaration order.
func cloneFrozen(m *Matrix, vars []string) *Matrix {
	engineStats.clones.Add(1)
	out := getMatrix()
	*out = Matrix{
		vars:        vars,
		cells:       m.cells,
		viols:       m.viols,
		sharedCells: true,
		sharedViols: true,
		fp:          m.fp,
	}
	return out
}

// memoKeyPrefix builds the run-invariant part of the memo key once per
// transferer: engine version and environment fingerprint (shared with the
// summary cache key, see enginePrefix).
func (t *transferer) memoKeyPrefix() string {
	if t.memoPrefix == "" {
		t.memoPrefix = enginePrefix(t.env)
	}
	return t.memoPrefix
}

// stmtKey renders a statement's transfer-relevant content canonically,
// cached per statement pointer (statements are immutable after Build).
func (t *transferer) stmtKey(s *norm.Stmt) string {
	if k, ok := t.stmtKeys[s]; ok {
		return k
	}
	k := strconv.Itoa(int(s.Op)) + "\x1e" + s.Dst + "\x1e" + s.Src + "\x1e" +
		s.Base + "\x1e" + s.Field + "\x1e" + s.TypeName + "\x1e" +
		strings.Join(s.Args, "\x1d") + "\x1e" + s.Callee + "\x1e" +
		strings.Join(s.Bind, "\x1d")
	if t.stmtKeys == nil {
		t.stmtKeys = make(map[*norm.Stmt]string, 16)
	}
	t.stmtKeys[s] = k
	return k
}

// applyMemo returns the transfer of stmt over before as a fresh COW matrix,
// serving from the memo when possible. The caller keeps ownership of before
// and owns the returned matrix. tab, when non-nil, collects per-run row
// dedup stats during fingerprinting. A noMemo transferer always computes:
// it is the reference path the memo's determinism tests compare against.
//
// With a summary table active, call statements bypass the memo entirely: the
// summary CONTENT the transfer consults is not part of the key (only the
// callee name is), so a hit could replay another program's — or a stale —
// summary effect. That covers fallback-havoc calls too: whether a call
// havocs or summarizes is itself table-dependent. Havoc-only runs keep
// memoizing calls; the havoc depends only on the statement and the matrix.
func (t *transferer) applyMemo(before *Matrix, s *norm.Stmt, tab *rowTable) *Matrix {
	if t.noMemo || (s.Op == norm.Call && t.summaries != nil) {
		after := before.Clone()
		t.apply(after, s)
		return after
	}
	key := t.memoKeyPrefix() + t.stmtKey(s) + "\x1f" + before.fingerprint(tab)
	if hit, ok := memoGet(key); ok {
		engineStats.memoHits.Add(1)
		return cloneFrozen(hit, before.vars)
	}
	engineStats.memoMisses.Add(1)
	after := before.Clone()
	t.apply(after, s)
	memoPut(key, after.Clone())
	return after
}

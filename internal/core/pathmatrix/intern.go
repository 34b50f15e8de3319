package pathmatrix

import "sync"

// Path expressions are hash-consed: structurally equal paths share one
// canonical backing slice with precomputed key and display strings, so
// relation identity is a slice-header comparison and ordering and printing
// stop re-rendering identical expressions.

// internShardCount shards the intern table to keep lock contention low when
// AnalyzeProgram runs functions in parallel. Must be a power of two.
const internShardCount = 64

// pathMeta is one canonical path expression with its memoized renderings.
// The path slice is immutable once published: every analysis goroutine may
// hold references to it.
type pathMeta struct {
	path Path
	key  string // Path.Key(): canonical map key, '~' markers kept
	str  string // Path.String(): the paper's display form
}

// internShard is one lock-striped slice of the table. Buckets chain metas
// whose paths collide on the 64-bit hash; lookups compare structurally.
type internShard struct {
	mu     sync.RWMutex
	byHash map[uint64][]*pathMeta
}

type pathInterner struct {
	shards [internShardCount]internShard
	// canon indexes published metas by the address of their first step, so
	// looking up a path that is already canonical costs one lock-free load
	// instead of re-hashing the content. Entries are only ever added.
	canon sync.Map // *Step -> *pathMeta
}

// metaOf returns the canonical meta for p. Canonical slices hit the pointer
// index; everything else goes through the content-addressed table. The length
// check rejects prefix subslices that share a canonical backing array.
func (in *pathInterner) metaOf(p Path) *pathMeta {
	if v, ok := in.canon.Load(&p[0]); ok {
		if m := v.(*pathMeta); len(m.path) == len(p) {
			return m
		}
	}
	return in.intern(p)
}

var interner = newPathInterner()

// singleCache maps a field name to its canonical one-step path (see single).
var singleCache sync.Map // string -> Path

func newPathInterner() *pathInterner {
	in := &pathInterner{}
	for i := range in.shards {
		in.shards[i].byHash = map[uint64][]*pathMeta{}
	}
	return in
}

// hashPath is FNV-1a over the steps. It allocates nothing, so probing the
// table with a stack-built candidate path stays allocation-free on hits.
func hashPath(p Path) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range p {
		for i := 0; i < len(s.Field); i++ {
			h ^= uint64(s.Field[i])
			h *= prime64
		}
		h ^= uint64(s.Min)
		h *= prime64
		if s.Plus {
			h ^= 0x2b
		}
		h *= prime64
	}
	return h
}

// find returns the canonical meta for p, or nil. The bucket slice is copied
// out under the read lock; its published elements are immutable.
func (in *pathInterner) find(h uint64, p Path) *pathMeta {
	sh := &in.shards[h&(internShardCount-1)]
	sh.mu.RLock()
	bucket := sh.byHash[h]
	sh.mu.RUnlock()
	for _, m := range bucket {
		if m.path.Equal(p) {
			return m
		}
	}
	return nil
}

// intern returns the canonical meta for p, creating it on first sight. The
// copy and the string renderings happen outside the lock; a racing insert of
// the same path is resolved by the re-check under the write lock.
func (in *pathInterner) intern(p Path) *pathMeta {
	h := hashPath(p)
	if m := in.find(h, p); m != nil {
		return m
	}
	cp := make(Path, len(p))
	copy(cp, p)
	m := &pathMeta{path: cp, key: cp.computeKey(), str: cp.computeString()}
	sh := &in.shards[h&(internShardCount-1)]
	sh.mu.Lock()
	for _, o := range sh.byHash[h] {
		if o.path.Equal(p) {
			sh.mu.Unlock()
			return o
		}
	}
	sh.byHash[h] = append(sh.byHash[h], m)
	sh.mu.Unlock()
	in.canon.Store(&cp[0], m)
	return m
}

// Intern returns the canonical copy of p: the same backing slice for every
// structurally equal path, so equality degenerates to comparing the slice
// header (see Path.Equal's fast path). Interned paths must never be mutated
// in place. The empty path interns to itself.
func Intern(p Path) Path {
	if len(p) == 0 {
		return p
	}
	return interner.metaOf(p).path
}

// InternerStats reports the number of distinct paths in the intern table,
// for tests and capacity debugging. The bounded path domain (maxSteps,
// countCap) keeps the table small for any fixed set of field names.
func InternerStats() (paths int) {
	for i := range interner.shards {
		sh := &interner.shards[i]
		sh.mu.RLock()
		for _, bucket := range sh.byHash {
			paths += len(bucket)
		}
		sh.mu.RUnlock()
	}
	return paths
}

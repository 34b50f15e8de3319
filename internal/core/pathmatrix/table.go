package pathmatrix

import "hash/maphash"

// entryTable hash-conses the entries of one fixpoint run. A matrix cell
// holds a table id, 0 for the empty entry, so a row copy costs 4 bytes per
// cell, rows hold no pointers, and entry equality is an id compare. Two
// entries get one id exactly when equalEntries holds (see appendEntryKey),
// so the fixpoint converges, counts and widens exactly as it would on the
// entries themselves.
//
// Interned entries are immutable. Only the run that owns a table writes to
// it; the run freezes it when it ends, after which its matrices are read
// concurrently. A write that has to intern into a frozen table first moves
// its matrix into a fresh one (see Matrix.writable). Tables die with their
// matrices: none is process-wide, and summaries leave a run as entry values.
type entryTable struct {
	entries []Entry  // by id; entries[0] is the empty entry
	canon   []bool   // by id: sigCanonical(entries[id])
	slots   []uint32 // ids from fixedIDs on, open-addressed by intern key hash; 0 is free
	key     []byte   // scratch for appendEntryKey
	buf     Entry    // scratch for an entry being built, then interned
	// joins memoizes join, open-addressed by id pair a<<32|b (pair 0, two
	// empty entries, is never joined and marks a free slot). joinHits
	// counts the joins it answered.
	joins    []joinMemo
	nJoins   int
	joinHits int
	frozen   bool
}

type joinMemo struct {
	pair uint64
	id   uint32
}

// The ids every table gives the one-relation entries without a path.
const (
	topID = 1 + iota
	aliasID
	mayAliasID
	fixedIDs
)

// The first ids of every table. A table's slices start as these arrays,
// full to capacity, so its first intern copies them and none is written.
var (
	fixedEntries = [fixedIDs]Entry{
		topID:      {{Kind: RelTop}},
		aliasID:    {{Kind: RelAlias, Certain: true}},
		mayAliasID: {{Kind: RelAlias}},
	}
	fixedCanon = [fixedIDs]bool{topID: true, aliasID: true, mayAliasID: true}
)

func newEntryTable() *entryTable {
	return &entryTable{entries: fixedEntries[:], canon: fixedCanon[:]}
}

// fixedID returns the fixed id of an entry equal to one of fixedEntries,
// and 0 for any other entry.
func fixedID(e Entry) uint32 {
	if len(e) != 1 {
		return 0
	}
	switch r := &e[0]; {
	case r.Kind == RelTop && !r.Certain:
		return topID
	case r.Kind == RelAlias && r.Certain:
		return aliasID
	case r.Kind == RelAlias:
		return mayAliasID
	}
	return 0
}

// appendEntryKey appends e's intern key: each relation's sort key (appendKey)
// and then its certainty as one byte, 0 or 1, which no sort key contains.
// Entries are sorted, so two keys are equal exactly when equalEntries holds.
func appendEntryKey(dst []byte, e Entry) []byte {
	for i := range e {
		dst = e[i].appendKey(dst)
		if e[i].Certain {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// keySeed seeds the intern key hash, so untrusted field names cannot steer
// entries into one probe chain. Ids follow insertion order, so the seed
// never shows in any output.
var keySeed = maphash.MakeSeed()

// intern returns e's id, storing a copy of e when the table has no equal
// entry yet. e itself stays the caller's.
func (t *entryTable) intern(e Entry) uint32 {
	if len(e) == 0 {
		return 0
	}
	if id := fixedID(e); id != 0 {
		return id
	}
	if 2*len(t.entries) >= len(t.slots) {
		t.slots = make([]uint32, max(16, 2*len(t.slots)))
		for id := fixedIDs; id < len(t.entries); id++ {
			*t.slot(t.entries[id]) = uint32(id)
		}
	}
	s := t.slot(e)
	if *s == 0 {
		*s = uint32(len(t.entries))
		t.entries = append(t.entries, append(make(Entry, 0, len(e)), e...))
		t.canon = append(t.canon, sigCanonical(e))
	}
	return *s
}

// slot returns the slot holding the id of the entry equal to e, or the
// free slot where that id goes. Probing starts at the hash of e's intern
// key and compares with equalEntries, the same equivalence.
func (t *entryTable) slot(e Entry) *uint32 {
	t.key = appendEntryKey(t.key[:0], e)
	mask := uint64(len(t.slots) - 1)
	for i := maphash.Bytes(keySeed, t.key) & mask; ; i = (i + 1) & mask {
		if id := t.slots[i]; id == 0 || equalEntries(t.entries[id], e) {
			return &t.slots[i]
		}
	}
}

// join returns the id of joinEntries over entries a and b. A run's joins
// repeat a few id pairs many times over, so each pair is joined once.
func (t *entryTable) join(a, b uint32) uint32 {
	if 2*t.nJoins >= len(t.joins) {
		old := t.joins
		t.joins = make([]joinMemo, max(16, 2*len(old)))
		for _, m := range old {
			if m.pair != 0 {
				*t.joinSlot(m.pair) = m
			}
		}
	}
	pair := uint64(a)<<32 | uint64(b)
	m := t.joinSlot(pair)
	if m.pair == pair {
		t.joinHits++
		return m.id
	}
	t.buf = joinEntries(t.buf[:0], t.entries[a], t.entries[b])
	*m = joinMemo{pair, t.intern(t.buf)}
	t.nJoins++
	return m.id
}

// joinSlot returns pair's memo slot, or the free slot where it goes.
func (t *entryTable) joinSlot(pair uint64) *joinMemo {
	mask := uint64(len(t.joins) - 1)
	for i := pair * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		if m := &t.joins[i]; m.pair == pair || m.pair == 0 {
			return m
		}
	}
}

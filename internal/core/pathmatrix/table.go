package pathmatrix

import (
	"hash/maphash"
	"slices"
)

// entryTable hash-conses the entries of one fixpoint run. A matrix cell
// holds a table id, 0 for the empty entry, so a row copy costs 4 bytes per
// cell, rows hold no pointers, and entry equality is an id compare. Two
// entries get one id exactly when equalEntries holds (see appendEntryKey),
// so the fixpoint converges, counts and widens exactly as it would on the
// entries themselves.
//
// Interned entries are immutable, so the table computes each id's facts
// once, and memoizes the pure per-entry rewrites the transfers repeat: join,
// add, the store's overwritten-edge rewrite and kill's stale-Via rewrite.
// Each memo key holds everything its rewrite reads, with (variable, field)
// pairs numbered per table (see site).
//
// Only the run that owns a table writes to it, memos included; the run
// freezes it when it ends, after which its matrices are read concurrently.
// A write that has to intern into or look up a memo of a frozen table first
// moves its matrix into a fresh one (see Matrix.writable). Tables die with
// their matrices: none is process-wide, and summaries leave a run as entry
// values.
type entryTable struct {
	entries []Entry      // by id; entries[0] is the empty entry
	facts   []entryFacts // by id: factsOf(entries[id]), plus factHeld
	slots   []uint32     // ids from fixedIDs on, open-addressed by intern key hash; 0 is free
	key     []byte       // scratch for appendEntryKey
	buf     Entry        // scratch for an entry being built, then interned
	memo    idMemo       // join, add, overwrite and stale
	// sites numbers the (variable, field) pairs memo keys hold, from 1: a
	// store's (base, field) and a kill's (variable, "").
	sites  map[[2]string]uint32
	frozen bool
}

// entryFacts caches what the transfers ask of an entry without decoding it.
type entryFacts uint8

const (
	factCanon   entryFacts = 1 << iota // sigCanonical
	factPath                           // holds a path relation
	factLiveVia                        // holds a Via tag naming a variable, not stale
	factAlias                          // holds "=" or "=?"
	factMust                           // holds "=" (Entry.mustAlias)
	factTop                            // holds Top
	// factHeld marks an id interned for a cell, not only as an add memo
	// key (see relID). It is a fact of the table, not of the entry.
	factHeld
)

// factsOf computes e's facts.
func factsOf(e Entry) entryFacts {
	var f entryFacts
	if sigCanonical(e) {
		f |= factCanon
	}
	for i := range e {
		r := &e[i]
		if r.Via.Var != "" && !r.Via.Stale {
			f |= factLiveVia
		}
		switch r.Kind {
		case RelPath:
			f |= factPath
		case RelAlias:
			f |= factAlias
		case RelTop:
			f |= factTop
		}
	}
	if e.mustAlias() {
		f |= factMust
	}
	return f
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
	fixedFacts = [fixedIDs]entryFacts{
		topID:      factCanon | factTop | factHeld,
		aliasID:    factCanon | factAlias | factMust | factHeld,
		mayAliasID: factCanon | factAlias | factHeld,
	}
)

func newEntryTable() *entryTable {
	return &entryTable{entries: fixedEntries[:], facts: fixedFacts[:]}
}

// fixedRelID returns the fixed id of the one-relation entry {r}, and 0
// when it has none.
func fixedRelID(r *Rel) uint32 {
	switch {
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
// entry yet, and marks the id held. e itself stays the caller's.
func (t *entryTable) intern(e Entry) uint32 {
	id := t.lookup(e)
	if id >= fixedIDs {
		t.facts[id] |= factHeld
	}
	return id
}

// held counts the held ids, the fixed ones included: the entries a run
// reports, which are the ids its cells and joins interned.
func (t *entryTable) held() int {
	n := 0
	for _, f := range t.facts {
		if f&factHeld != 0 {
			n++
		}
	}
	return n
}

// relID returns the id of the one-relation entry {r}: r's key in the add
// memo. The id is held only once a cell holds it.
func (t *entryTable) relID(r *Rel) uint32 {
	if id := fixedRelID(r); id != 0 {
		return id
	}
	t.buf = append(t.buf[:0], *r)
	return t.lookup(t.buf)
}

// lookup returns e's id, storing a copy of e when the table has no equal
// entry yet.
func (t *entryTable) lookup(e Entry) uint32 {
	if len(e) == 0 {
		return 0
	}
	if len(e) == 1 {
		if id := fixedRelID(&e[0]); id != 0 {
			return id
		}
	}
	if 2*len(t.entries) >= len(t.slots) {
		t.slots = make([]uint32, max(16, 2*len(t.slots)))
		for id := fixedIDs; id < len(t.entries); id++ {
			*t.slot(t.entries[id]) = uint32(id)
		}
	}
	s := t.slot(e)
	if *s == 0 {
		if len(t.entries) == 1<<30 {
			panic("pathmatrix: too many entries in one run")
		}
		*s = uint32(len(t.entries))
		t.entries = append(t.entries, append(make(Entry, 0, len(e)), e...))
		t.facts = append(t.facts, factsOf(e))
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

// site returns the number of the pair (v, field) in this table's memo
// keys.
func (t *entryTable) site(v, field string) uint32 {
	k := [2]string{v, field}
	if n, ok := t.sites[k]; ok {
		return n
	}
	if t.sites == nil {
		t.sites = map[[2]string]uint32{}
	}
	n := uint32(len(t.sites)) + 1
	if n == 1<<29 {
		panic("pathmatrix: too many memo sites in one run")
	}
	t.sites[k] = n
	return n
}

// The rewrites the table memoizes. A memo key is kind<<30 in the middle
// of a uint64, an entry id above it and the rest of the input, under 1<<30,
// below it; ids stay under 1<<30 (see lookup).
const (
	memoAdd   = iota // (id, rel): in is the one-relation entry rel
	memoEdge         // (id, fromMust, site): in is fromMust<<29 | site
	memoStale        // (id, site)
	memoJoin         // (a, b): in is b
	memoKinds
)

func memoKey(kind int, id, in uint32) uint64 {
	return uint64(id)<<32 | uint64(kind)<<30 | uint64(in)
}

// memoSlot holds one memoized rewrite. No key is 0: an add's relation is
// never empty, and every other kind is nonzero. Key 0 marks a free slot.
type memoSlot struct {
	key     uint64
	id      uint32
	dropped bool // memoEdge: the rewrite dropped a relation
}

// idMemo memoizes the table's rewrites, open-addressed by key. Its slots
// are allocated on first use. hits counts the rewrites it answered, by
// kind.
type idMemo struct {
	slots []memoSlot
	n     uint32
	hits  [memoKinds]uint32
}

// get returns key's slot and whether it holds key's result. A miss claims
// a free slot for key, whose result the caller then stores in it.
func (mm *idMemo) get(key uint64) (*memoSlot, bool) {
	if 2*int(mm.n) >= len(mm.slots) {
		old := mm.slots
		mm.slots = make([]memoSlot, max(16, 2*len(old)))
		for _, s := range old {
			if s.key != 0 {
				*mm.free(s.key) = s
			}
		}
	}
	s := mm.free(key)
	if s.key == key {
		mm.hits[key>>30&3]++
		return s, true
	}
	s.key = key
	mm.n++
	return s, false
}

// free returns key's slot, or the free slot where key goes.
func (mm *idMemo) free(key uint64) *memoSlot {
	mask := uint64(len(mm.slots) - 1)
	for i := key * 0x9e3779b97f4a7c15 >> 32 & mask; ; i = (i + 1) & mask {
		if s := &mm.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// join returns the id of joinEntries over entries a and b. A run's joins
// repeat a few id pairs many times over, so each pair is joined once.
func (t *entryTable) join(a, b uint32) uint32 {
	s, ok := t.memo.get(memoKey(memoJoin, a, b))
	if !ok {
		t.buf = joinEntries(t.buf[:0], t.entries[a], t.entries[b])
		s.id = t.intern(t.buf)
	}
	return s.id
}

// add returns the id of entry id with the relation of the one-relation
// entry rel added (Entry.add), or id itself when the entry covers it.
func (t *entryTable) add(id, rel uint32) uint32 {
	s, ok := t.memo.get(memoKey(memoAdd, id, rel))
	if !ok {
		s.id = id
		if r := t.entries[rel][0]; !t.entries[id].covers(r) {
			t.buf = append(t.buf[:0], t.entries[id]...).add(r)
			s.id = t.intern(t.buf)
		}
	}
	return s.id
}

// overwrite returns the id of entry id, not 0, after the edge base->field
// is overwritten (overwriteEntry), and whether a relation dropped. site is
// site(base, field); fromMust says the cell's row variable must-aliases
// base.
func (t *entryTable) overwrite(id uint32, fromMust bool, site uint32, base, field string) (uint32, bool) {
	in := site
	if fromMust {
		in |= 1 << 29
	}
	s, ok := t.memo.get(memoKey(memoEdge, id, in))
	if !ok {
		out, changed, dropped := overwriteEntry(t.buf[:0], t.entries[id], fromMust, base, field)
		s.id, s.dropped = id, dropped
		if changed {
			t.buf = out
			s.id = t.intern(out)
		}
	}
	return s.id, s.dropped
}

// stale returns the id of entry id, not 0, with the live Via tags naming
// variable v marked stale (staleEntry). site is site(v, "").
func (t *entryTable) stale(id, site uint32, v string) uint32 {
	s, ok := t.memo.get(memoKey(memoStale, id, site))
	if !ok {
		s.id = id
		if out, changed := staleEntry(t.buf[:0], t.entries[id], v); changed {
			t.buf = out
			s.id = t.intern(out)
		}
	}
	return s.id
}

// overwriteEntry appends to dst what entry e becomes when base->field is
// overwritten: paths leaving a must-alias of base (fromMust) through field
// and relations tagged Via{base, field} drop, and certain paths using field
// elsewhere lose certainty. It reports whether the entry changed and
// whether a relation dropped.
func overwriteEntry(dst, e Entry, fromMust bool, base, field string) (out Entry, changed, dropped bool) {
	out = dst
	for k := range e {
		r := e[k]
		drop := false
		if r.Kind == RelPath {
			if fromMust && r.Path.startsWith(field) {
				drop = true
			}
			if r.Via.Var == base && r.Via.Field == field && !r.Via.Stale {
				drop = true
			}
			if !drop && r.Certain && pathUsesField(r.Path, field) {
				r.Certain = false
			}
		}
		if !changed && (drop || r.Certain != e[k].Certain) {
			changed = true
			for _, kept := range e[:k] {
				out = out.add(kept)
			}
		}
		if drop {
			dropped = true
			continue
		}
		if changed {
			out = out.add(r)
		}
	}
	return out, changed, dropped
}

// staleEntry appends to dst entry e with every Via tag naming v marked
// stale, and reports whether e held one that was not stale yet.
func staleEntry(dst, e Entry, v string) (out Entry, changed bool) {
	out = dst
	for k := range e {
		if e[k].Via.Var != v || e[k].Via.Stale {
			continue
		}
		r := e[k]
		if !changed {
			out, changed = append(out, e...), true
		}
		out = slices.DeleteFunc(out, func(o Rel) bool { return sameRel(&o, &r) })
		r.Via.Stale = true
		out = out.add(r)
	}
	return out, changed
}

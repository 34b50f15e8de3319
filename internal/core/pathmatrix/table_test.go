package pathmatrix

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/norm"
	"repro/internal/source/types"
)

// runTables analyzes info the way AnalyzeProgramCtx does and returns the
// entry table of every run: each summary run, each function run and each
// loop's IterationMatrix run.
func runTables(t *testing.T, info *types.Info) []*entryTable {
	t.Helper()
	ctx := context.Background()
	tab, err := ComputeSummariesCtx(ctx, info, info.Env)
	if err != nil {
		t.Fatal(err)
	}
	var out []*entryTable
	for name := range info.Funcs {
		g := tab.Graph(name)
		if !tab.Recursive(name) {
			res, err := analyzeFunc(ctx, g, info.Env, tab, summaryInit(g))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.AtEntry().tab)
		}
		res, err := AnalyzeCtxWith(ctx, g, info.Env, tab)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res.AtEntry().tab)
		for _, l := range g.Loops {
			if len(l.Branch.Succs) > 0 {
				out = append(out, res.IterationMatrix(l).tab)
			}
		}
	}
	return out
}

// TestEntryTableEquivalence: over every run of the hostile seed-1 programs
// and the testdata programs, two interned entries share an id exactly when
// equalEntries holds, each id's canonical flag is sigCanonical of its
// entry, and every memoized join is the joinEntries of its pair.
func TestEntryTableEquivalence(t *testing.T) {
	infos := hostileInfos(t)
	for _, file := range miniFiles(t) {
		infos = append(infos, loadMini(t, file))
	}
	var entries, joins, hits int
	for _, info := range infos {
		for _, tab := range runTables(t, info) {
			if !tab.frozen {
				t.Fatal("a finished run left its table writable")
			}
			for a := 1; a < len(tab.entries); a++ {
				ea := tab.entries[a]
				for b := 1; b < len(tab.entries); b++ {
					if eq := equalEntries(ea, tab.entries[b]); eq != (a == b) {
						t.Fatalf("ids %d and %d: equalEntries(%s, %s) = %v", a, b, ea, tab.entries[b], eq)
					}
				}
				if got := tab.facts[a]&factCanon != 0; got != sigCanonical(ea) {
					t.Fatalf("id %d (%s): canonical flag %v", a, ea, got)
				}
			}
			for _, m := range tab.memo.slots {
				if m.key == 0 || m.key>>30&3 != memoJoin {
					continue
				}
				a, b := tab.entries[m.key>>32], tab.entries[m.key&(1<<30-1)]
				if want := joinEntries(nil, a, b); !equalEntries(tab.entries[m.id], want) {
					t.Fatalf("memoized join of %s and %s = %s, want %s", a, b, tab.entries[m.id], want)
				}
				joins++
			}
			entries += len(tab.entries) - 1
			hits += int(tab.memo.hits[memoJoin])
		}
	}
	t.Logf("%d entries, %d memoized joins, %d memo hits", entries, joins, hits)
	if joins == 0 || hits == 0 {
		t.Error("no join was memoized or answered from the memo")
	}
}

// TestConcurrentResultReads: one Result is read from several goroutines at
// once — IterationMatrix (computed on first use), MarshalJSON, Entry, Join
// of two of its matrices, and a write to a clone of one, which moves the
// clone out of the frozen table — and every answer equals a serial run's.
func TestConcurrentResultReads(t *testing.T) {
	info := hostileInfos(t)[0]
	ctx := context.Background()
	serial, err := AnalyzeProgramCtx(ctx, info, info.Env, 1)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := AnalyzeProgramCtx(ctx, info, info.Env, 1)
	if err != nil {
		t.Fatal(err)
	}
	// read renders everything the goroutines touch on one function's result.
	read := func(r *Result) string {
		ms := append(append([]*Matrix(nil), r.Before...), r.After...)
		for _, l := range r.Graph.Loops {
			if len(l.Branch.Succs) > 0 {
				ms = append(ms, r.IterationMatrix(l))
			}
		}
		var out []byte
		var prev *Matrix
		for _, m := range ms {
			if m == nil {
				continue
			}
			js, err := json.Marshal(m)
			if err != nil {
				t.Error(err)
				return ""
			}
			out = append(out, js...)
			for _, p := range m.Vars() {
				for _, q := range m.Vars() {
					out = append(out, m.Entry(p, q).String()...)
				}
			}
			if prev != nil {
				j, _ := Join(m, prev)
				out = append(out, j.String()...)
			}
			if vars := m.Vars(); len(vars) > 1 {
				c := m.Clone()
				c.addRel(vars[0], vars[1], Rel{Kind: RelTop})
				c.kill(vars[1])
				out = append(out, c.String()...)
			}
			out = append(out, m.String()...)
			prev = m
		}
		return string(out)
	}
	for name, fr := range serial {
		want := read(fr.Result)
		var wg sync.WaitGroup
		got := make([]string, 4)
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[g] = read(shared[name].Result)
			}()
		}
		wg.Wait()
		for g, s := range got {
			if s != want {
				t.Fatalf("%s: goroutine %d read differs from the serial result", name, g)
			}
		}
	}
}

// lookupID returns the id tab holds for an entry equal to e, without
// interning it.
func lookupID(tab *entryTable, e Entry) (uint32, bool) {
	if len(e) == 0 {
		return 0, true
	}
	if len(e) == 1 {
		if id := fixedRelID(&e[0]); id != 0 {
			return id, true
		}
	}
	if len(tab.slots) == 0 {
		return 0, false
	}
	id := *tab.slot(e)
	return id, id != 0
}

// TestEntryTableFacts: over every run of testdata/*.mini and of seeds 1-5
// of the calls and hostile profiles, each id's cached facts are the facts
// of its entry, the held count counts the held ids, and every memoized add,
// overwrite and stale rewrite equals the rewrite recomputed on the decoded
// entry, which re-interns to the memoized id.
func TestEntryTableFacts(t *testing.T) {
	names, infos := strippedInfos(t)
	var adds, edges, stales, fromMust, hits int
	for k, info := range infos {
		for _, tab := range runTables(t, info) {
			held := 0
			for id := 1; id < len(tab.entries); id++ {
				if got, want := tab.facts[id]&^factHeld, factsOf(tab.entries[id]); got != want {
					t.Fatalf("%s: id %d (%s): facts %b, want %b", names[k], id, tab.entries[id], got, want)
				}
				if tab.facts[id]&factHeld != 0 {
					held++
				}
			}
			if held != tab.held() {
				t.Fatalf("%s: %d held ids, table counts %d", names[k], held, tab.held())
			}
			siteOf := map[uint32][2]string{}
			for site, n := range tab.sites {
				siteOf[n] = site
			}
			for _, s := range tab.memo.slots {
				if s.key == 0 {
					continue
				}
				e, in := tab.entries[s.key>>32], uint32(s.key&(1<<30-1))
				var want Entry
				switch kind := s.key >> 30 & 3; kind {
				case memoJoin:
					continue // TestEntryTableEquivalence
				case memoAdd:
					rel := tab.entries[in]
					if len(rel) != 1 {
						t.Fatalf("%s: add memo key %x names entry %s, not one relation", names[k], s.key, rel)
					}
					want = e
					if !e.covers(rel[0]) {
						want = append(Entry(nil), e...).add(rel[0])
					}
					adds++
				case memoEdge:
					must, site := in&(1<<29) != 0, siteOf[in&(1<<29-1)]
					out, changed, dropped := overwriteEntry(nil, e, must, site[0], site[1])
					if want = e; changed {
						want = out
					}
					if dropped != s.dropped {
						t.Fatalf("%s: overwrite memo key %x on %s: dropped %v, recomputed %v", names[k], s.key, e, s.dropped, dropped)
					}
					if must {
						fromMust++
					}
					edges++
				case memoStale:
					site := siteOf[in]
					if site[1] != "" {
						t.Fatalf("%s: stale memo key %x names a store site %v", names[k], s.key, site)
					}
					out, changed := staleEntry(nil, e, site[0])
					if want = e; changed {
						want = out
					}
					stales++
				}
				if id, ok := lookupID(tab, want); !ok || id != s.id {
					t.Fatalf("%s: memo key %x on %s holds %s, recomputed %s", names[k], s.key, e, tab.entries[s.id], want)
				}
			}
			for _, h := range tab.memo.hits[:memoJoin] {
				hits += int(h)
			}
		}
	}
	t.Logf("%d add, %d overwrite (%d from a must-alias of base), %d stale memo entries; %d memo hits", adds, edges, fromMust, stales, hits)
	if adds == 0 || edges == 0 || fromMust == 0 || stales == 0 || hits == 0 {
		t.Error("some memo was never filled or never answered")
	}
}

// TestConcurrentFrozenTransfers: eight goroutines at once re-apply every
// store, kill and assign of each function to clones of one frozen Result's
// before-states. A write that interns or looks up a memo moves its clone
// into a fresh table, so only a table's own run writes its entries and
// memos: every goroutine's after-states equal a serial run's, and the
// shared Result and its table are unchanged.
func TestConcurrentFrozenTransfers(t *testing.T) {
	ctx := context.Background()
	// apply renders the state after each re-applied statement of r.
	apply := func(r *Result) string {
		tr := transferer{env: r.Env}
		var b strings.Builder
		for _, n := range r.Graph.Nodes {
			m := r.Before[n.ID]
			if n.Stmt == nil || m == nil {
				continue
			}
			switch n.Stmt.Op {
			case norm.StorePtr, norm.Assign, norm.AssignNil, norm.AssignNew, norm.Free:
			default:
				continue
			}
			c := m.Clone()
			tr.apply(c, n.Stmt)
			b.WriteString(c.String())
		}
		return b.String()
	}
	for _, info := range hostileInfos(t) {
		serial, err := AnalyzeProgramCtx(ctx, info, info.Env, 1)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := AnalyzeProgramCtx(ctx, info, info.Env, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, fr := range serial {
			want := apply(fr.Result)
			before := shared[name].Result.String()
			tab := shared[name].Result.AtEntry().tab
			sizes := func() [2]int { return [2]int{len(tab.entries), int(tab.memo.n)} }
			frozen := sizes()
			got := make([]string, 8)
			var wg sync.WaitGroup
			for g := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g] = apply(shared[name].Result)
				}()
			}
			wg.Wait()
			for g, s := range got {
				if s != want {
					t.Fatalf("%s: goroutine %d's transfers differ from the serial ones", name, g)
				}
			}
			if shared[name].Result.String() != before || sizes() != frozen {
				t.Fatalf("%s: transfers on clones changed the shared result or its table", name)
			}
		}
	}
}

package pathmatrix

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
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
		if !tab.unit.recursive[name] {
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
	infos := hostileInfos(t, 1)
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
// once — IterationMatrix (computed on first use), MarshalJSON, Entry, String,
// a clone of each matrix, and equal of two matrices of one run — and every
// answer equals a serial run's.
func TestConcurrentResultReads(t *testing.T) {
	info := hostileInfos(t, 1)[0]
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
			if prev != nil && prev.tab == m.tab {
				out = strconv.AppendBool(out, m.equal(prev))
			}
			out = append(out, m.Clone().String()...)
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

// TestOneRunContract: a matrix belongs to one fixpoint run. A store, kill
// or assign, or a violation added or deleted, on a clone of a finished
// Result's matrix panics with the finished-run message, even when the
// violation set would not change, and join and equal of matrices of two
// runs panic.
func TestOneRunContract(t *testing.T) {
	const finished = "pathmatrix: write to a matrix of a finished run"
	const twoRuns = "pathmatrix: matrices of two runs"
	// panics returns what f panics with, "" when it returns.
	panics := func(f func()) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		f()
		return ""
	}
	var stores, kills, assigns, held int
	for _, info := range hostileInfos(t, 1) {
		res, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, fr := range res {
			r := fr.Result
			tr := transferer{env: r.Env}
			for _, n := range r.Graph.Nodes {
				m := r.Before[n.ID]
				if m == nil {
					continue
				}
				if s := n.Stmt; s != nil && (s.Op == norm.StorePtr || s.Op == norm.Assign && s.Dst != s.Src) {
					if got := panics(func() { tr.apply(m.Clone(), s) }); got != finished {
						t.Fatalf("%s: %v on a finished run's matrix: panic %q, want %q", name, s, got, finished)
					}
					if s.Op == norm.StorePtr {
						stores++
					} else {
						assigns++
					}
				}
				absent := Violation{Prop: "call", Base: name + deadName}
				if got := panics(func() { m.Clone().addViolation(absent) }); got != finished {
					t.Fatalf("%s: a violation on a finished run's matrix: panic %q, want %q", name, got, finished)
				}
				if got := panics(func() { m.Clone().deleteViolation(absent) }); got != finished {
					t.Fatalf("%s: deleting an absent violation on a finished run's matrix: panic %q, want %q", name, got, finished)
				}
				for _, v := range m.Violations() {
					if got := panics(func() { m.Clone().addViolation(v) }); got != finished {
						t.Fatalf("%s: re-adding held %v on a finished run's matrix: panic %q, want %q", name, v, got, finished)
					}
					if got := panics(func() { m.Clone().deleteViolation(v) }); got != finished {
						t.Fatalf("%s: deleting held %v on a finished run's matrix: panic %q, want %q", name, v, got, finished)
					}
					held++
				}
				for i, v := range m.Vars() {
					if len(m.appendRelated(nil, i)) == 0 {
						continue
					}
					if got := panics(func() { m.Clone().kill(v) }); got != finished {
						t.Fatalf("%s: kill %s on a finished run's matrix: panic %q, want %q", name, v, got, finished)
					}
					kills++
				}
			}
		}
	}
	t.Logf("%d stores, %d kills, %d assigns, %d held violations panicked", stores, kills, assigns, held)
	if stores == 0 || kills == 0 || assigns == 0 || held == 0 {
		t.Error("some transfer was never tried on a finished run's matrix")
	}

	a := NewMatrix([]string{"p", "q"})
	for _, b := range []*Matrix{
		NewMatrix([]string{"p", "q"}),           // another index and table
		newMatrix(a.ix, newEntryTable()),        // another table
		newMatrix(newVarIndex(a.Vars()), a.tab), // another index
	} {
		if got := panics(func() { join(a, b) }); got != twoRuns {
			t.Errorf("join of two runs: panic %q, want %q", got, twoRuns)
		}
		if got := panics(func() { a.equal(b) }); got != twoRuns {
			t.Errorf("equal of two runs: panic %q, want %q", got, twoRuns)
		}
	}
}

// TestRunSharesIndexAndTable: over testdata/*.mini and seeds 1-5 of the
// hostile profiles, every recorded matrix of a Result has its run's index
// and frozen table, every cell holds an id that table holds, and each
// IterationMatrix is a run of its own over the loop head's variables and
// their shadows.
func TestRunSharesIndexAndTable(t *testing.T) {
	infos := hostileInfos(t, 5)
	for _, file := range miniFiles(t) {
		infos = append(infos, loadMini(t, file))
	}
	// check reports how m departs from the run of ix and tab, "" if not.
	check := func(m *Matrix, ix *varIndex, tab *entryTable) string {
		switch {
		case m.ix != ix:
			return "another index"
		case m.tab != tab:
			return "another table"
		case !tab.frozen:
			return "a table still writable"
		}
		for _, r := range m.rows {
			for _, id := range r {
				if int(id) >= len(tab.entries) || id != 0 && tab.facts[id]&factHeld == 0 {
					return fmt.Sprintf("cell id %d its table does not hold", id)
				}
			}
		}
		return ""
	}
	var matrices, iters int
	for _, info := range infos {
		res, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, fr := range res {
			r := fr.Result
			ix, tab := r.AtEntry().ix, r.AtEntry().tab
			for _, ms := range [][]*Matrix{r.Before, r.After} {
				for id, m := range ms {
					if m == nil {
						continue
					}
					if why := check(m, ix, tab); why != "" {
						t.Fatalf("%s: node %d's matrix has %s", name, id, why)
					}
					matrices++
				}
			}
			for k, l := range r.Graph.Loops {
				if len(l.Branch.Succs) == 0 {
					continue
				}
				im := r.IterationMatrix(l)
				if im.ix == ix || im.tab == tab {
					t.Fatalf("%s: loop %d's iteration matrix is in the function's run", name, k)
				}
				if why := check(im, im.ix, im.tab); why != "" {
					t.Fatalf("%s: loop %d's iteration matrix has %s", name, k, why)
				}
				head := r.LoopHead(l).Vars()
				want := append([]string(nil), head...)
				for _, v := range head {
					want = append(want, v+Shadow)
				}
				if !slices.Equal(im.Vars(), want) {
					t.Fatalf("%s: loop %d's iteration matrix is over %v, want %v", name, k, im.Vars(), want)
				}
				iters++
			}
		}
	}
	t.Logf("%d recorded matrices, %d iteration matrices", matrices, iters)
}

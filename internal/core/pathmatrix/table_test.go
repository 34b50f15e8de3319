package pathmatrix

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

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
				if tab.canon[a] != sigCanonical(ea) {
					t.Fatalf("id %d (%s): canonical flag %v", a, ea, tab.canon[a])
				}
			}
			for _, m := range tab.joins {
				if m.pair == 0 {
					continue
				}
				a, b := tab.entries[m.pair>>32], tab.entries[uint32(m.pair)]
				if want := joinEntries(nil, a, b); !equalEntries(tab.entries[m.id], want) {
					t.Fatalf("memoized join of %s and %s = %s, want %s", a, b, tab.entries[m.id], want)
				}
				joins++
			}
			entries += len(tab.entries) - 1
			hits += tab.joinHits
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

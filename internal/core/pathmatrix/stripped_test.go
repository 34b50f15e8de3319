package pathmatrix

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// strippedInfos returns the programs the stripped-table tests run over:
// testdata/*.mini, then seeds 1-5 of the calls profile and of each hostile
// profile, each named for its failure messages.
func strippedInfos(t *testing.T) (names []string, infos []*types.Info) {
	t.Helper()
	for _, file := range miniFiles(t) {
		names = append(names, filepath.Base(file))
		infos = append(infos, loadMini(t, file))
	}
	for _, profile := range []string{"calls", "ptree", "skiplist", "ringlol", "repair"} {
		pr, err := gen.ProfileByName(profile)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			prog, err := parser.Parse(gen.Generate(seed, pr).Source())
			if err != nil {
				t.Fatal(err)
			}
			info, errs := types.Check(prog)
			if len(errs) > 0 {
				t.Fatal(errs[0])
			}
			names = append(names, fmt.Sprintf("%s seed %d", profile, seed))
			infos = append(infos, info)
		}
	}
	return names, infos
}

// funcNames returns the program's function names, sorted.
func funcNames(info *types.Info) []string {
	names := make([]string, 0, len(info.Funcs))
	for name := range info.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// classicText renders a classic analysis of fn under tab matrix by matrix:
// each Before and After matrix and its violations.
func classicText(t *testing.T, tab *SummaryTable, fn string) string {
	t.Helper()
	res, err := AnalyzeCtxWith(context.Background(), tab.Graph(fn), tab.Env(), tab)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := range res.Before {
		for _, m := range []*Matrix{res.Before[i], res.After[i]} {
			if m == nil {
				b.WriteString("<nil>\n")
				continue
			}
			fmt.Fprintf(&b, "%s\n%v\n", m.String(), m.Violations())
		}
	}
	return b.String()
}

// eagerStripped is the table ComputeSummaries builds under the stripped
// environment, summarizing every function, from a cold summary cache.
func eagerStripped(info *types.Info) *SummaryTable {
	ResetSummaryCache()
	return ComputeSummaries(info, info.Env.Stripped())
}

// summarizedCallees returns the functions fn transitively calls that have a
// summary in full, a table that summarizes every function, found by a walk
// of its own over the call graph.
func summarizedCallees(full *SummaryTable, fn string) map[string]bool {
	out, seen, work := map[string]bool{}, map[string]bool{}, []string{fn}
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		for _, c := range full.unit.callees[f] {
			if !seen[c] {
				seen[c] = true
				work = append(work, c)
				if full.byFn[c] != nil {
					out[c] = true
				}
			}
		}
	}
	return out
}

// TestStrippedDemandEquivalence: for every function of every program, the
// classic analysis under the demand stripped table equals, matrix by
// matrix, the one under the eager table that summarizes every function.
// Each function is checked on a fresh memo, which must hold exactly the
// summaries of the functions it transitively calls, and on one memo grown
// over all functions in turn. Every summary a demand table holds, and every
// effect, equals the eager one. Both tables are built from a cold summary
// cache, so summaries are compared by value, not served from the same
// cache entries.
func TestStrippedDemandEquivalence(t *testing.T) {
	names, infos := strippedInfos(t)
	held, eagerHeld := 0, 0
	for k, info := range infos {
		eager := eagerStripped(info)
		ResetSummaryCache()
		tab := ComputeSummaries(info, info.Env)
		check := func(adds, s *SummaryTable, fn string) {
			t.Helper()
			if got, want := classicText(t, s, fn), classicText(t, eager, fn); got != want {
				t.Errorf("%s: %s: classic analysis under the demand table differs:\n%s\nwant:\n%s", names[k], fn, got, want)
			}
			for f := range s.byFn {
				if !reflect.DeepEqual(s.Lookup(f), eager.Lookup(f)) {
					t.Errorf("%s: %s: demand summary of %s differs from the eager one", names[k], fn, f)
				}
			}
			if !reflect.DeepEqual(s.effects, eager.effects) {
				t.Errorf("%s: %s: stripped effects differ", names[k], fn)
			}
			if s.Env().Fingerprint() != eager.Env().Fingerprint() {
				t.Errorf("%s: %s: stripped table's environment differs", names[k], fn)
			}
			for f := range info.Funcs {
				if s.Graph(f) != adds.Graph(f) {
					t.Errorf("%s: %s: the stripped table lowered its own graph", names[k], f)
				}
			}
		}
		var s *SummaryTable
		for _, fn := range funcNames(info) {
			adds := ComputeSummaries(info, info.Env)
			fresh, err := adds.Stripped(context.Background(), fn)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for f := range fresh.byFn {
				got[f] = true
			}
			if want := summarizedCallees(eager, fn); !maps.Equal(got, want) {
				t.Errorf("%s: %s: a fresh stripped table summarizes %v, want %v", names[k], fn, got, want)
			}
			check(adds, fresh, fn)
			if s, err = tab.Stripped(context.Background(), fn); err != nil {
				t.Fatal(err)
			}
			check(tab, s, fn)
		}
		held += len(s.byFn)
		eagerHeld += len(eager.byFn)
	}
	t.Logf("demand tables hold %d of the eager tables' %d summaries", held, eagerHeld)
	if held >= eagerHeld {
		t.Error("the demand tables summarized every function")
	}
}

// TestConcurrentStrippedTable: eight goroutines call Stripped naming
// different functions and each runs a classic analysis on the table it got
// while the others extend the memo; every analysis equals the serial one
// under the eager table. Under the race detector this also proves no
// extension writes a table some analysis reads.
func TestConcurrentStrippedTable(t *testing.T) {
	names, infos := strippedInfos(t)
	for k, info := range infos {
		fns := funcNames(info)
		eager := eagerStripped(info)
		want := map[string]string{}
		for _, fn := range fns {
			want[fn] = classicText(t, eager, fn)
		}
		ResetSummaryCache()
		tab := ComputeSummaries(info, info.Env)
		const callers = 8
		var wg sync.WaitGroup
		for i := range callers {
			wg.Add(1)
			go func(fn string) {
				defer wg.Done()
				s, err := tab.Stripped(context.Background(), fn)
				if err != nil {
					t.Error(err)
					return
				}
				if got := classicText(t, s, fn); got != want[fn] {
					t.Errorf("%s: %s: concurrent classic analysis differs", names[k], fn)
				}
			}(fns[i%len(fns)])
		}
		wg.Wait()
	}
}

// TestStrippedKeepsNoCancelledTable: a Stripped call under a done context
// that would extend the memo fails and leaves the prior table as it was,
// and the next live call extends that table.
func TestStrippedKeepsNoCancelledTable(t *testing.T) {
	names, infos := strippedInfos(t)
	for k, info := range infos {
		// Find a first function whose callees have summaries and a second
		// that needs one more.
		tab := ComputeSummaries(info, info.Env)
		var first, second string
		for _, a := range funcNames(info) {
			needA := summarizedCallees(tab, a)
			for _, b := range funcNames(info) {
				needB := summarizedCallees(tab, b)
				maps.DeleteFunc(needB, func(f string, _ bool) bool { return needA[f] })
				if len(needA) > 0 && len(needB) > 0 {
					first, second = a, b
				}
			}
		}
		if first == "" {
			continue
		}

		ResetSummaryCache()
		prior, err := tab.Stripped(context.Background(), first)
		if err != nil {
			t.Fatal(err)
		}
		held := maps.Clone(prior.byFn)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if s, err := tab.Stripped(ctx, second); !errors.Is(err, context.Canceled) || s != nil {
			t.Fatalf("%s: cancelled Stripped = %v, %v; want nil, context.Canceled", names[k], s, err)
		}
		if tab.stripped != prior || !maps.Equal(prior.byFn, held) {
			t.Fatalf("%s: a cancelled extension changed the prior table", names[k])
		}
		s, err := tab.Stripped(context.Background(), second)
		if err != nil || s == nil || s == prior {
			t.Fatalf("%s: live Stripped after a cancelled one = %v, %v", names[k], s, err)
		}
		for fn := range summarizedCallees(tab, second) {
			if s.byFn[fn] == nil {
				t.Errorf("%s: the live extension did not summarize %s", names[k], fn)
			}
		}
		for fn, sum := range held {
			if s.byFn[fn] != sum {
				t.Errorf("%s: the extension dropped or replaced %s's summary", names[k], fn)
			}
		}
		if !maps.Equal(prior.byFn, held) {
			t.Errorf("%s: the live extension wrote the prior table", names[k])
		}
		return
	}
	t.Fatal("no program has two functions whose callees need different summaries")
}

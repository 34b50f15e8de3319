package pathmatrix

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentStrippedTable: concurrent first callers of Stripped share
// one computation and one table, and that table matches, row for row, the
// one ComputeSummaries builds under the stripped environment from scratch.
// Both are computed from a cold summary cache, so the rows are compared by
// value, not served from the same cache entries.
func TestConcurrentStrippedTable(t *testing.T) {
	for _, file := range miniFiles(t) {
		info := loadMini(t, file)
		ResetSummaryCache()
		want := ComputeSummaries(info, info.Env.Stripped())
		ResetSummaryCache()
		tab := ComputeSummaries(info, info.Env)

		const callers = 8
		got := make([]*SummaryTable, callers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, err := tab.Stripped(context.Background())
				if err != nil {
					t.Error(err)
				}
				got[i] = s
			}(i)
		}
		wg.Wait()
		name := filepath.Base(file)
		for i, s := range got {
			if s != got[0] {
				t.Fatalf("%s: caller %d got a different table", name, i)
			}
		}
		s := got[0]
		if s.Env().Fingerprint() != want.Env().Fingerprint() {
			t.Errorf("%s: stripped table's environment differs", name)
		}
		if !reflect.DeepEqual(s.byFn, want.byFn) {
			t.Errorf("%s: stripped summaries differ from ComputeSummaries under env.Stripped()", name)
		}
		if !reflect.DeepEqual(s.effects, want.effects) {
			t.Errorf("%s: stripped effects differ", name)
		}
		for fn := range info.Funcs {
			if s.Graph(fn) != tab.Graph(fn) {
				t.Errorf("%s: %s: the stripped table lowered its own graph", name, fn)
			}
		}
	}
}

// TestStrippedKeepsNoCancelledTable: a Stripped call under a done context
// fails and leaves nothing behind, so the next live call computes the
// table.
func TestStrippedKeepsNoCancelledTable(t *testing.T) {
	info := loadMini(t, miniFiles(t)[0])
	tab := ComputeSummaries(info, info.Env)
	ResetSummaryCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if s, err := tab.Stripped(ctx); !errors.Is(err, context.Canceled) || s != nil {
		t.Fatalf("cancelled Stripped = %v, %v; want nil, context.Canceled", s, err)
	}
	s, err := tab.Stripped(context.Background())
	if err != nil || s == nil || s.Len() == 0 {
		t.Fatalf("live Stripped after a cancelled one = %v, %v", s, err)
	}
}

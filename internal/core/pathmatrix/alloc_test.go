package pathmatrix

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// hostileInfos checks generator seeds 1 to seeds of each hostile profile,
// profile by profile: the shapes
// (parent-pointer trees, skip lists, rings of lists, break-then-repair)
// whose fixpoints dominate a miss request.
func hostileInfos(tb testing.TB, seeds int64) []*types.Info {
	tb.Helper()
	var out []*types.Info
	for _, name := range []string{"ptree", "skiplist", "ringlol", "repair"} {
		pr, err := gen.ProfileByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		for seed := int64(1); seed <= seeds; seed++ {
			prog, err := parser.Parse(gen.Generate(seed, pr).Source())
			if err != nil {
				tb.Fatal(err)
			}
			info, errs := types.Check(prog)
			if len(errs) > 0 {
				tb.Fatal(errs[0])
			}
			out = append(out, info)
		}
	}
	return out
}

// analyzeAllocBytes is the heap volume one cold-summary AnalyzeProgramCtx
// pass over infos allocates on one worker.
func analyzeAllocBytes(tb testing.TB, infos []*types.Info) uint64 {
	tb.Helper()
	ResetSummaryCache()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, info := range infos {
		if _, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1); err != nil {
			tb.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestFixpointAllocBudget guards the compact matrix layout: rows of entry
// table ids and index-addressed rows. The same pass allocated 63.7 MB
// (63 759 384 bytes) with map-backed entries and cells, 4.57 MB
// (4 573 648 bytes) with rows of slice-backed entries, and 2.14 MB
// (2 141 376 bytes) with rows of ids (Go 1.24, linux/amd64); the budget is
// 60% of the slice-backed figure. Under the race detector sync.Pool drops
// pooled items at random, so the matrix header slabs are reallocated
// often, and the budget stays 40% of the map-backed figure.
func TestFixpointAllocBudget(t *testing.T) {
	const mapLayoutBytes, sliceLayoutBytes = 63759384, 4573648
	infos := hostileInfos(t, 1)
	analyzeAllocBytes(t, infos) // warm the matrix header slab pool
	got := analyzeAllocBytes(t, infos)
	t.Logf("allocated %d bytes (%.0f%% of the slice-backed layout)", got, 100*float64(got)/sliceLayoutBytes)
	limit := uint64(sliceLayoutBytes) * 6 / 10
	if raceEnabled {
		limit = uint64(mapLayoutBytes) * 4 / 10
	}
	if got > limit {
		t.Errorf("AnalyzeProgramCtx allocated %d bytes, over the %d-byte budget", got, limit)
	}
}

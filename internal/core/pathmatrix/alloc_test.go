package pathmatrix

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// hostileInfos checks generator seed 1 of each hostile profile: the shapes
// (parent-pointer trees, skip lists, rings of lists, break-then-repair)
// whose fixpoints dominate a miss request.
func hostileInfos(tb testing.TB) []*types.Info {
	tb.Helper()
	var out []*types.Info
	for _, name := range []string{"ptree", "skiplist", "ringlol", "repair"} {
		pr, err := gen.ProfileByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		prog, err := parser.Parse(gen.Generate(1, pr).Source())
		if err != nil {
			tb.Fatal(err)
		}
		info, errs := types.Check(prog)
		if len(errs) > 0 {
			tb.Fatal(errs[0])
		}
		out = append(out, info)
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

// TestFixpointAllocBudget guards the compact matrix layout: slice-backed
// entries and index-addressed rows. With map-backed entries and cells the
// same pass allocated 63.7 MB (63 759 384 bytes, Go 1.24, linux/amd64);
// the budget is 40% of that.
func TestFixpointAllocBudget(t *testing.T) {
	const mapLayoutBytes = 63759384
	infos := hostileInfos(t)
	analyzeAllocBytes(t, infos) // warm the matrix header slab pool
	got := analyzeAllocBytes(t, infos)
	t.Logf("allocated %d bytes (%.0f%% of the map layout)", got, 100*float64(got)/mapLayoutBytes)
	if limit := uint64(mapLayoutBytes) * 4 / 10; got > limit {
		t.Errorf("AnalyzeProgramCtx allocated %d bytes, over the %d-byte budget", got, limit)
	}
}

package pathmatrix

import (
	"context"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/norm"
	"repro/internal/source/types"
)

// analysisMode is one way a caller can run the engine. The modes differ
// only in what they pass per analysis; none of them touches shared engine
// state beyond the content-addressed caches.
type analysisMode struct {
	name string
	run  func(ctx context.Context, info *types.Info, fi *types.FuncInfo) (*Result, error)
}

var analysisModes = []analysisMode{
	{"summarized", func(ctx context.Context, info *types.Info, fi *types.FuncInfo) (*Result, error) {
		tab, err := ComputeSummariesCtx(ctx, info, info.Env)
		if err != nil {
			return nil, err
		}
		return AnalyzeCtxWith(ctx, norm.Build(fi, info.Env), info.Env, tab)
	}},
	{"havoc", func(ctx context.Context, info *types.Info, fi *types.FuncInfo) (*Result, error) {
		return AnalyzeCtxWith(ctx, norm.Build(fi, info.Env), info.Env, nil)
	}},
}

// TestMixedModesConcurrent: analyses of every testdata function under the
// summarized and havoc modes, all running at once, must each be
// byte-identical to a serial run in the same mode. Run under -race it also
// proves the modes need no process-wide lock: the engine has no knob one
// analysis could flip under another.
func TestMixedModesConcurrent(t *testing.T) {
	type job struct {
		info *types.Info
		fi   *types.FuncInfo
		mode analysisMode
		key  string
	}
	var jobs []job
	for _, file := range miniFiles(t) {
		info := loadMini(t, file)
		names := make([]string, 0, len(info.Funcs))
		for name := range info.Funcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, m := range analysisModes {
				key := filepath.Base(file) + "/" + name + "/" + m.name
				jobs = append(jobs, job{info, info.Funcs[name], m, key})
			}
		}
	}

	ctx := context.Background()
	want := make(map[string]string, len(jobs))
	for _, j := range jobs {
		r, err := j.mode.run(ctx, j.info, j.fi)
		if err != nil {
			t.Fatalf("%s: %v", j.key, err)
		}
		want[j.key] = dumpResult(r)
	}

	// Cold caches for the concurrent round, so misses race misses as well
	// as hits; two rounds interleaved so every mode overlaps every other.
	ResetSummaryCache()
	const rounds = 2
	var wg sync.WaitGroup
	for round := 0; round < rounds; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				r, err := j.mode.run(ctx, j.info, j.fi)
				if err != nil {
					t.Errorf("%s: %v", j.key, err)
					return
				}
				if got := dumpResult(r); got != want[j.key] {
					t.Errorf("%s: concurrent result differs from the serial run in the same mode", j.key)
				}
			}(j)
		}
	}
	wg.Wait()
}

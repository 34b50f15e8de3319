package pathmatrix

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/norm"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// dumpProgram renders every function's analysis — entry/exit matrices plus
// each loop's fixed-point and iteration matrices — as one deterministic
// string, for byte-level comparison between engine configurations.
func dumpProgram(t *testing.T, results map[string]*FuncResult) string {
	t.Helper()
	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString("=== " + name + " ===\n")
		b.WriteString(dumpResult(results[name].Result))
	}
	return b.String()
}

// dumpResult renders one function's entry/exit matrices plus each loop's
// fixed-point and iteration matrices.
func dumpResult(r *Result) string {
	var b strings.Builder
	b.WriteString(r.String())
	for _, l := range r.Graph.Loops {
		b.WriteString("loop head:\n")
		b.WriteString(r.LoopHead(l).String())
		if len(l.Branch.Succs) > 0 {
			b.WriteString("iteration matrix:\n")
			b.WriteString(r.IterationMatrix(l).String())
		}
	}
	return b.String()
}

// TestParallelDeterminism: serial and parallel AnalyzeProgram must produce
// byte-identical matrix renderings for every testdata program.
func TestParallelDeterminism(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "..", "testdata", "*.mini"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			info, errs := types.Check(prog)
			if len(errs) > 0 {
				t.Fatal(errs[0])
			}
			serial, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 8)
			if err != nil {
				t.Fatal(err)
			}
			ds, dp := dumpProgram(t, serial), dumpProgram(t, parallel)
			if ds != dp {
				t.Errorf("serial and parallel dumps differ:\n--- serial ---\n%s\n--- parallel ---\n%s", ds, dp)
			}
		})
	}
}

// TestAnalyzeProgramMatchesLegacy: the pooled parallel engine must agree
// with a freshly normalized serial run function by function.
func TestAnalyzeProgramMatchesLegacy(t *testing.T) {
	src := `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
void shift(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = p->data - hd->data;
        p = p->next;
    }
}
void zero(TwoWayLL *hd) {
    TwoWayLL *p;
    p = hd->next;
    while (p != NULL) {
        p->data = 0;
        p = p->next;
    }
}
`
	info := types.MustCheck(parser.MustParse(src))
	results, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for name, fr := range results {
		g := norm.Build(info.Funcs[name], info.Env)
		want := Analyze(g, info.Env)
		if got, w := fr.Result.String(), want.String(); got != w {
			t.Errorf("%s: program analysis differs from direct analysis:\n%s\nvs\n%s", name, got, w)
		}
	}
}

// TestAnalyzeCtxCancel: a cancelled context aborts the fixed-point run with
// the context's error instead of spinning to completion.
func TestAnalyzeCtxCancel(t *testing.T) {
	info := types.MustCheck(parser.MustParse(shiftOrigin))
	fi := info.Func("shift")
	g := norm.Build(fi, info.Env)

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts
	if _, err := AnalyzeCtxWith(ctx, g, info.Env, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeCtxWith error = %v, want context.Canceled", err)
	}
	if _, err := AnalyzeProgramCtx(ctx, info, info.Env, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeProgramCtx error = %v, want context.Canceled", err)
	}

	// An expired deadline behaves the same way.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, err := AnalyzeCtxWith(dctx, g, info.Env, nil); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("AnalyzeCtxWith error = %v, want context.DeadlineExceeded", err)
	}
}

// TestIterationMatrixConcurrent: a Result computes each loop's iteration
// matrix once. Repeated calls return the same matrix, and concurrent callers
// on one shared Result — which also read, clone and compare its matrices —
// agree on it (run under -race). The programs are testdata/*.mini and the
// hostile seed-1 programs, whose break-then-repair loops have heads holding
// violations: an iteration matrix's run starts from its head's violation
// set, shared.
func TestIterationMatrixConcurrent(t *testing.T) {
	var infos []*types.Info
	for _, file := range miniFiles(t) {
		infos = append(infos, loadMini(t, file))
	}
	infos = append(infos, hostileInfos(t, 1)...)
	invalidHeads := 0
	for k, info := range infos {
		res, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, fr := range res {
			r := fr.Result
			for _, l := range r.Graph.Loops {
				if !r.LoopHead(l).Valid() {
					invalidHeads++
				}
				const callers = 8
				got := make([]*Matrix, callers)
				dumps := make([]string, callers)
				var wg sync.WaitGroup
				for c := 0; c < callers; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						got[c] = r.IterationMatrix(l)
						head := r.LoopHead(l)
						if !head.Clone().equal(head) {
							t.Error("a loop head differs from its clone")
						}
						dumps[c] = head.String() + got[c].String()
					}(c)
				}
				wg.Wait()
				for c := range got {
					if got[c] != got[0] || dumps[c] != dumps[0] {
						t.Fatalf("program %d %s: concurrent callers disagree on the iteration matrix", k, name)
					}
				}
				if r.IterationMatrix(l) != got[0] {
					t.Fatalf("program %d %s: iteration matrix recomputed", k, name)
				}
			}
		}
	}
	t.Logf("%d loop heads held violations", invalidHeads)
	if invalidHeads == 0 {
		t.Error("no loop head held a violation")
	}
}

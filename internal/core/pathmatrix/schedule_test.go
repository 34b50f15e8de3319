package pathmatrix

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/source/parser"
	"repro/internal/source/types"
)

// scheduleDecl is the record type of the hand-written schedule programs.
const scheduleDecl = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
`

// schedulePrograms are call graphs the generator does not draw: a diamond
// (top calls left and right, which both call leaf), a recursive component
// (even and odd call each other), and a non-recursive caller of a
// recursive function that itself calls a non-recursive one (driver calls
// walk, which calls itself and touch).
var schedulePrograms = map[string]string{
	"diamond": scheduleDecl + `
void leaf(TwoWayLL *a) {
    TwoWayLL *p;
    p = a->next;
    if (p != NULL) {
        p->prev = a;
    }
}
void left(TwoWayLL *a) {
    leaf(a);
    a->data = 1;
}
void right(TwoWayLL *a, TwoWayLL *b) {
    leaf(b);
    a->next = b;
}
void top(TwoWayLL *a, TwoWayLL *b) {
    left(a);
    right(a, b);
}
`,
	"recursive": scheduleDecl + `
void even(TwoWayLL *a) {
    if (a != NULL) {
        odd(a->next);
    }
}
void odd(TwoWayLL *a) {
    if (a != NULL) {
        a->data = 0;
        even(a->next);
    }
}
void start(TwoWayLL *a) {
    even(a);
}
`,
	"mixed": scheduleDecl + `
void touch(TwoWayLL *a) {
    TwoWayLL *q;
    q = a->next;
    a->data = 2;
    if (q != NULL) {
        q->prev = a;
    }
}
void walk(TwoWayLL *a) {
    if (a != NULL) {
        touch(a);
        walk(a->next);
    }
}
void driver(TwoWayLL *a) {
    walk(a);
    touch(a);
}
`,
}

// scheduleInfos returns the programs the schedule tests run over, each
// named for its failure messages: the hand-written call graphs, then
// testdata/*.mini, then seeds 1 to seeds of every generator profile.
func scheduleInfos(t *testing.T, seeds int64) (names []string, infos []*types.Info) {
	t.Helper()
	for _, name := range []string{"diamond", "recursive", "mixed"} {
		names = append(names, name)
		infos = append(infos, types.MustCheck(parser.MustParse(schedulePrograms[name])))
	}
	for _, file := range miniFiles(t) {
		names = append(names, filepath.Base(file))
		infos = append(infos, loadMini(t, file))
	}
	for _, pr := range gen.Profiles() {
		for seed := int64(1); seed <= seeds; seed++ {
			prog, err := parser.Parse(gen.Generate(seed, pr).Source())
			if err != nil {
				t.Fatal(err)
			}
			info, errs := types.Check(prog)
			if len(errs) > 0 {
				t.Fatal(errs[0])
			}
			names = append(names, fmt.Sprintf("%s seed %d", pr.Name, seed))
			infos = append(infos, info)
		}
	}
	return names, infos
}

// scheduleRun is one AnalyzeProgramCtx run's rendering and summary counts.
type scheduleRun struct {
	dump             string
	computed, reused int
}

func runSchedule(t *testing.T, info *types.Info, workers int) scheduleRun {
	t.Helper()
	res, err := AnalyzeProgramCtx(context.Background(), info, info.Env, workers)
	if err != nil {
		t.Fatal(err)
	}
	var tab *SummaryTable
	for _, fr := range res {
		if tab == nil {
			tab = fr.Result.Summaries
		} else if fr.Result.Summaries != tab {
			t.Fatal("the function runs of one program used different summary tables")
		}
	}
	return scheduleRun{dump: dumpProgram(t, res), computed: tab.Computed, reused: tab.Reused}
}

// TestScheduleDeterminism: AnalyzeProgramCtx on 1, 2, 4 and 8 workers gives
// byte-identical results and the same Computed and Reused counts, from a
// cold summary cache and again from the warm one the cold run left. The
// programs are the hand-written call graphs (a diamond, a recursive
// component, and a non-recursive caller of a recursive function that calls
// a non-recursive one), testdata/*.mini and seeds 1-10 of every generator
// profile. The hand-written graphs must summarize what their shape says:
// every function of the diamond, no member of a cycle.
func TestScheduleDeterminism(t *testing.T) {
	names, infos := scheduleInfos(t, 10)
	for k, info := range infos {
		var want [2]scheduleRun
		for wi, workers := range []int{1, 2, 4, 8} {
			ResetSummaryCache()
			for pass, got := range [2]scheduleRun{runSchedule(t, info, workers), runSchedule(t, info, workers)} {
				if wi == 0 {
					want[pass] = got
					continue
				}
				if got.dump != want[pass].dump {
					t.Errorf("%s: pass %d on %d workers differs from the serial run:\n%s\nwant:\n%s", names[k], pass, workers, got.dump, want[pass].dump)
				}
				if got.computed != want[pass].computed || got.reused != want[pass].reused {
					t.Errorf("%s: pass %d on %d workers computed %d and reused %d summaries, the serial run %d and %d",
						names[k], pass, workers, got.computed, got.reused, want[pass].computed, want[pass].reused)
				}
			}
		}
		if want[1].computed != 0 || want[1].reused != want[0].computed {
			t.Errorf("%s: the warm run computed %d and reused %d summaries, want 0 and %d", names[k], want[1].computed, want[1].reused, want[0].computed)
		}
	}
	// scheduleInfos lists the hand-written programs first.
	for i, want := range []int{4, 1, 2} {
		if got := runSchedule(t, infos[i], 2); got.computed+got.reused != want {
			t.Errorf("%s: the table holds %d summaries, want %d", names[i], got.computed+got.reused, want)
		}
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to baseline.
func waitGoroutines(t *testing.T, baseline int, what string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the schedule", what, runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestScheduleCancelConcurrent: cancelling a schedule once its k-th
// fixpoint run has ended — mid-schedule, with summary and function runs
// left to start or waiting on a callee — returns the context's error on
// every worker count, and a panic in a run re-raises on the caller's
// goroutine after the "summaries" span has ended. Either way no task is left waiting: the goroutine count falls
// back to its baseline. The runs end under an obs tracer, whose OnEnd hook
// cancels or panics on the goroutine that ended the run's span.
func TestScheduleCancelConcurrent(t *testing.T) {
	names, infos := scheduleInfos(t, 1)
	cancelled, panicked := 0, 0
	for k, info := range infos {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, at := range []int32{1, 2, 3} {
				what := fmt.Sprintf("%s on %d workers, stopped at run %d", names[k], workers, at)
				baseline := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				tr := obs.NewTracer(1)
				var runs atomic.Int32
				tr.OnEnd = func(rec obs.SpanRecord) {
					if rec.Name == "fixpoint" && runs.Add(1) == at {
						cancel()
					}
				}
				tctx, root := tr.StartRoot(ctx, "test", obs.TraceID{})
				res, err := AnalyzeProgramCtx(tctx, info, info.Env, workers)
				root.End()
				cancel()
				if runs.Load() >= at {
					cancelled++
					if !errors.Is(err, context.Canceled) || res != nil {
						t.Fatalf("%s: AnalyzeProgramCtx = %v, %v; want nil, context.Canceled", what, res, err)
					}
				} else if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				waitGoroutines(t, baseline, what)

				var summaries atomic.Bool
				tr.OnEnd = func(rec obs.SpanRecord) {
					if rec.Name == "summaries" {
						summaries.Store(true)
					}
					if rec.Name == "fixpoint" && runs.Add(1) == at {
						panic("injected")
					}
				}
				runs.Store(0)
				func() {
					defer func() {
						v := recover()
						if v == "injected" {
							panicked++
							if !summaries.Load() {
								t.Fatalf("%s: the panic left the summaries span open", what)
							}
						} else if v != nil || runs.Load() >= at {
							t.Fatalf("%s: recovered %v, want the injected panic", what, v)
						}
					}()
					tctx, root := tr.StartRoot(context.Background(), "test", obs.TraceID{})
					defer root.End()
					AnalyzeProgramCtx(tctx, info, info.Env, workers) //nolint:errcheck
				}()
				waitGoroutines(t, baseline, what+" (panic)")
			}
		}
	}
	if cancelled == 0 || panicked == 0 {
		t.Errorf("%d schedules were cancelled and %d panicked mid-run, want some of each", cancelled, panicked)
	}
}

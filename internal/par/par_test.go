package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachSlotsResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 5, 100} {
			out := make([]int, n)
			calls := make([]atomic.Int32, n)
			err := Each(context.Background(), n, workers, func(i int) error {
				calls[i].Add(1)
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: err = %v", workers, n, err)
			}
			for i := range out {
				if out[i] != i*i || calls[i].Load() != 1 {
					t.Fatalf("workers=%d n=%d: slot %d = %d after %d calls, want %d after 1",
						workers, n, i, out[i], calls[i].Load(), i*i)
				}
			}
		}
	}
}

// TestEachWorkerBound checks that at most min(workers, n) calls overlap,
// that workers <= 0 means GOMAXPROCS, and that the bound is reached: every
// call waits until the expected number of calls are running at once.
func TestEachWorkerBound(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{n: 3, workers: 8, want: 3},
		{n: 12, workers: 4, want: 4},
		{n: 12, workers: 0, want: min(runtime.GOMAXPROCS(0), 12)},
		{n: 12, workers: -1, want: min(runtime.GOMAXPROCS(0), 12)},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n=%d,workers=%d", c.n, c.workers), func(t *testing.T) {
			var running, peak atomic.Int32
			var wave sync.WaitGroup
			wave.Add(c.want)
			err := Each(context.Background(), c.n, c.workers, func(i int) error {
				now := running.Add(1)
				defer running.Add(-1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				if i < c.want {
					wave.Done()
					wave.Wait() // the first wave runs all at once
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := peak.Load(); got != int32(c.want) {
				t.Fatalf("peak concurrency = %d, want %d", got, c.want)
			}
		})
	}
}

// TestEachStopsAfterCancel: once ctx is done no new index starts. The
// workers-1 indices before stopAt hold the other workers until stopAt has
// cancelled, so every later index is handed out after the cancel.
func TestEachStopsAfterCancel(t *testing.T) {
	const n, stopAt = 1000, 10
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		gate := make(chan struct{})
		started := make([]atomic.Bool, n)
		err := Each(ctx, n, workers, func(i int) error {
			started[i].Store(true)
			switch {
			case i == stopAt:
				cancel()
				close(gate)
			case i > stopAt-workers:
				<-gate
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		for i := range started {
			if i > stopAt && started[i].Load() {
				t.Fatalf("workers=%d: index %d started after the cancel at %d", workers, i, stopAt)
			}
			if i <= stopAt && workers == 1 && !started[i].Load() {
				t.Fatalf("serial: index %d skipped before the cancel at %d", i, stopAt)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Each(ctx, n, 4, func(int) error { t.Error("f called on a done context"); return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("done context: err = %v, want context.Canceled", err)
	}
}

// TestEachStopsAfterError: once an f has returned an error no new index
// starts. Only one worker orders the error before every later index; with
// more, the others may be between two calls when it lands.
func TestEachStopsAfterError(t *testing.T) {
	const n, failAt = 1000, 10
	for _, workers := range []int{1, 4} {
		var started atomic.Int32
		err := Each(context.Background(), n, workers, func(i int) error {
			started.Add(1)
			if i == failAt {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != fmt.Sprintf("item %d", failAt) {
			t.Fatalf("workers=%d: err = %v, want item %d", workers, err, failAt)
		}
		if got := started.Load(); workers == 1 && got != failAt+1 {
			t.Fatalf("%d calls started, want %d (none after the error)", got, failAt+1)
		}
	}
}

// TestEachLowestIndexErrorWins makes every item fail, but lets the highest
// index return first: Each must still report index 0's error.
func TestEachLowestIndexErrorWins(t *testing.T) {
	const workers = 4
	var wave sync.WaitGroup
	wave.Add(workers)
	release := make([]chan struct{}, workers)
	for i := range release {
		release[i] = make(chan struct{})
	}
	err := Each(context.Background(), workers, workers, func(i int) error {
		wave.Done()
		if i == workers-1 {
			wave.Wait()
			close(release[i]) // highest index fails first
		}
		<-release[i]
		if i > 0 {
			close(release[i-1])
		}
		return fmt.Errorf("item %d", i)
	})
	if err == nil || err.Error() != "item 0" {
		t.Fatalf("err = %v, want item 0", err)
	}
}

// TestEachPanicReachesCaller: a panic in one call is re-raised on the
// caller's goroutine, and only after the other running call has returned.
func TestEachPanicReachesCaller(t *testing.T) {
	running := make(chan struct{})
	var otherDone atomic.Bool
	defer func() {
		v := recover()
		if v != "boom" {
			t.Fatalf("recovered %v, want boom", v)
		}
		if !otherDone.Load() {
			t.Fatal("panic re-raised before the other worker stopped")
		}
	}()
	Each(context.Background(), 2, 2, func(i int) error { //nolint:errcheck
		if i == 0 {
			<-running
			panic("boom")
		}
		close(running)
		// Outlive the panic by a margin, so an Each that re-raised it
		// without waiting would be caught.
		time.Sleep(20 * time.Millisecond)
		otherDone.Store(true)
		return nil
	})
	t.Fatal("Each returned instead of panicking")
}

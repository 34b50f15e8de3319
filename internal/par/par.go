// Package par runs independent, index-addressed work on a bounded set of
// goroutines. It is the one fan-out in the program: per-function analysis,
// fuzz campaigns, experiment runs, load generation and batch items all go
// through Each, so they share one cancellation and one panic contract.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Each calls f(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means GOMAXPROCS; the count is capped at n). The calling
// goroutine is one of the workers, so workers == 1 runs f serially on it.
//
// Indices are handed out in increasing order from one counter. No new index
// starts once ctx is done or an f has returned an error; calls already
// running are waited for. Then, if any f panicked, the first recovered
// panic is re-raised on the caller's goroutine. Otherwise Each returns
// ctx.Err() if ctx is done, else the error of the lowest failing index,
// else nil. Results belong in slots indexed by i, which makes the output
// independent of the worker count and of scheduling.
func Each(ctx context.Context, n, workers int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	r := &run{ctx: ctx, n: n, f: f, errAt: n}
	r.wg.Add(workers)
	for w := 1; w < workers; w++ {
		go r.work()
	}
	if workers > 0 {
		r.work()
	}
	r.wg.Wait()
	if r.panicVal != nil {
		panic(r.panicVal)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.err
}

// run is the state one Each call shares among its workers.
type run struct {
	ctx  context.Context
	n    int
	f    func(int) error
	next atomic.Int64
	stop atomic.Bool // an f failed or panicked
	wg   sync.WaitGroup

	mu       sync.Mutex
	errAt    int // lowest failing index, n while none has failed
	err      error
	panicVal any // the first recovered panic
}

func (r *run) work() {
	defer r.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			r.mu.Lock()
			if r.panicVal == nil {
				r.panicVal = v
			}
			r.mu.Unlock()
			r.stop.Store(true)
		}
	}()
	for {
		i := int(r.next.Add(1)) - 1
		if i >= r.n || r.stop.Load() || r.ctx.Err() != nil {
			return
		}
		if err := r.f(i); err != nil {
			r.mu.Lock()
			if i < r.errAt {
				r.errAt, r.err = i, err
			}
			r.mu.Unlock()
			r.stop.Store(true)
		}
	}
}

package pathmatrix

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// TestConcurrentAppendJSON: goroutines encode every matrix of one frozen
// Result at once, the before and after states and the iteration matrices,
// each into a buffer it reuses as the daemon does, and every encoding
// equals the serial one.
func TestConcurrentAppendJSON(t *testing.T) {
	for _, info := range hostileInfos(t, 1) {
		frs, err := AnalyzeProgramCtx(context.Background(), info, info.Env, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, fr := range frs {
			r := fr.Result
			var ms []*Matrix
			for _, m := range append(append([]*Matrix(nil), r.Before...), r.After...) {
				if m != nil {
					ms = append(ms, m)
				}
			}
			for _, l := range r.Graph.Loops {
				if len(l.Branch.Succs) > 0 {
					ms = append(ms, r.IterationMatrix(l))
				}
			}
			want := make([][]byte, len(ms))
			for i, m := range ms {
				want[i] = m.AppendJSON(nil)
			}
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var buf []byte
					for k := range ms {
						i := (k + g*len(ms)/4) % len(ms) // each goroutine starts elsewhere
						buf = ms[i].AppendJSON(buf[:0])
						if !bytes.Equal(buf, want[i]) {
							t.Errorf("%s: goroutine %d: matrix %d encodes differently from the serial encoding", name, g, i)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		}
	}
}

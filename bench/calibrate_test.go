package main

import (
	"math/rand"
	"testing"
)

// The memory-latency kernels chase a permutation; a shorter cycle would
// keep the chase inside the cache it is meant to miss.
func TestCycleVisitsEveryElement(t *testing.T) {
	for _, n := range []int{2, 3, 1000} {
		next := cycle(rand.New(rand.NewSource(1)), n)
		steps, j := 0, int32(0)
		for {
			j = next[j]
			steps++
			if j == 0 || steps > n {
				break
			}
		}
		if steps != n {
			t.Errorf("n=%d: back at 0 after %d steps, want %d", n, steps, n)
		}
	}
}

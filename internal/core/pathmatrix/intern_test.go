package pathmatrix

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// randPath builds a random path over a small field universe, spanning the
// whole domain the analysis can produce (dimension pseudo-fields included).
func randPath(rng *rand.Rand) Path {
	fields := []string{"next", "prev", "left", "right", "parent", "~down", "~X"}
	n := rng.Intn(maxSteps) + 1
	p := make(Path, n)
	for i := range p {
		p[i] = Step{
			Field: fields[rng.Intn(len(fields))],
			Min:   rng.Intn(countCap) + 1,
			Plus:  rng.Intn(2) == 0,
		}
	}
	return p
}

// sameSlice reports whether two paths share one backing slice — the
// pointer-identity notion of equality interning is supposed to establish.
func sameSlice(a, b Path) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// TestInternProperty: Intern(p) == Intern(q) (pointer identity) iff
// p.Equal(q) (structural equality), across randomly generated paths.
func TestInternProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		p, q := randPath(rng), randPath(rng)
		ip, iq := Intern(p), Intern(q)
		if !ip.Equal(p) || !iq.Equal(q) {
			t.Fatalf("interning changed the value: %v -> %v, %v -> %v", p, ip, q, iq)
		}
		if got, want := sameSlice(ip, iq), p.Equal(q); got != want {
			t.Fatalf("Intern(%v) identical to Intern(%v) = %v, want %v (Equal=%v)",
				p, q, got, want, p.Equal(q))
		}
	}
}

// TestInternIdempotent: interning a canonical path returns the same slice,
// and the memoized renderings match the computed ones.
func TestInternIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		p := randPath(rng)
		ip := Intern(p)
		if !sameSlice(Intern(ip), ip) {
			t.Fatalf("Intern not idempotent for %v", p)
		}
		if ip.String() != p.computeString() {
			t.Fatalf("memoized String %q != computed %q", ip.String(), p.computeString())
		}
		if ip.Key() != p.computeKey() {
			t.Fatalf("memoized Key %q != computed %q", ip.Key(), p.computeKey())
		}
	}
}

// TestInternConcurrent hammers the table from several goroutines with
// overlapping path sets: every goroutine must observe the same canonical
// slice for the same value (the race detector checks the locking).
func TestInternConcurrent(t *testing.T) {
	workers := runtime.GOMAXPROCS(0) * 4
	canon := make([][]Path, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(42)) // same seed: same sequence
			out := make([]Path, 500)
			for i := range out {
				out[i] = Intern(randPath(rng))
			}
			canon[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range canon[w] {
			if !sameSlice(canon[0][i], canon[w][i]) {
				t.Fatalf("worker %d got a different canonical slice for path %d", w, i)
			}
		}
	}
	if InternerStats() == 0 {
		t.Fatal("interner table unexpectedly empty")
	}
}

package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"
)

// The benchmark shares its machine with other tenants, and the same work on
// it runs 20-30% slower or faster in phases that last minutes, longer than a
// run. End-to-end times are therefore reported at reference speed: each
// pass's times are divided by the machine's speed factor, the calibration
// mix's time around that pass over calRef. The mix uses only the standard
// library and this file, so no change to the code under test can move it.
const (
	calRef  = 100 * time.Millisecond // the mix's time at reference speed
	calReps = 3                      // mixes per sample; the sample is their median
)

// calibrator holds the mix's inputs, built once so a sample times only work.
type calibrator struct {
	far, near []int32 // single-cycle permutations: 32 MB and 512 KB of pointer chasing
	block     []byte
	doc       calDoc
}

type calDoc struct {
	Name  string
	Cells []calCell
	Tags  map[string]int
}

type calCell struct {
	P, Q string
	Rels []string
	N    int
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{far: cycle(rng, 8<<20), near: cycle(rng, 128<<10), block: make([]byte, 1<<20),
		doc: calDoc{Name: "calibration", Tags: map[string]int{}}}
	for i := range c.block {
		c.block[i] = byte(i)
	}
	for i := 0; i < 800; i++ {
		c.doc.Cells = append(c.doc.Cells, calCell{P: "p" + strconv.Itoa(rng.Intn(100)), Q: "q" + strconv.Itoa(i),
			Rels: []string{"next+", "prev", "D"}, N: i})
		c.doc.Tags["t"+strconv.Itoa(i)] = i
	}
	c.mix() // the first mix also grows the heap and faults in the inputs
	return c
}

// cycle returns a permutation of 0..n-1 that is one cycle (Sattolo's
// shuffle), so chasing it visits every element in a random order.
func cycle(rng *rand.Rand, n int) []int32 {
	next := make([]int32, n)
	for i := range next {
		next[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return next
}

var calSink int // keeps the compiler from dropping the kernels' work

func chase(next []int32, steps int) {
	j := int32(0)
	for i := 0; i < steps; i++ {
		j = next[j]
	}
	calSink += int(j)
}

type calNode struct{ l, r *calNode }

func calTree(depth int) *calNode {
	if depth == 0 {
		return &calNode{}
	}
	return &calNode{calTree(depth - 1), calTree(depth - 1)}
}

func (n *calNode) count() int {
	if n.l == nil {
		return 1
	}
	return 1 + n.l.count() + n.r.count()
}

// mix runs each kernel once; each takes about a seventh of calRef at
// reference speed. They cover what the analysis layers spend time on:
// memory latency, cache-resident pointer chasing, hashing, map and slice
// growth, reflection-driven JSON, allocation and collection of small
// objects, and string comparison.
func (c *calibrator) mix() {
	chase(c.far, 110_000)
	chase(c.near, 2_100_000)
	for i := 0; i < 18; i++ {
		sum := sha256.Sum256(c.block)
		calSink += int(sum[0])
	}
	m := map[int][]int{}
	for i := 0; i < 400_000; i++ {
		m[i%20_000] = append(m[i%20_000], i)
	}
	calSink += len(m)
	for i := 0; i < 7; i++ {
		b, _ := json.Marshal(c.doc) // a map and slices of strings always marshal
		var d calDoc
		_ = json.Unmarshal(b, &d) // decodes what Marshal just encoded
		calSink += len(d.Cells)
	}
	for i := 0; i < 8; i++ {
		calSink += calTree(15).count()
	}
	rng := rand.New(rand.NewSource(2))
	words := make([]string, 45_000)
	for i := range words {
		words[i] = strconv.FormatInt(rng.Int63(), 10)
	}
	sort.Strings(words)
	calSink += len(words[0])
}

// sample is the median time of calReps mixes.
func (c *calibrator) sample() time.Duration {
	var ts [calReps]time.Duration
	for i := range ts {
		t := time.Now()
		c.mix()
		ts[i] = time.Since(t)
	}
	slices.Sort(ts[:])
	return ts[calReps/2]
}

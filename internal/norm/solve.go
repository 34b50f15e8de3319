package norm

import (
	"context"
	"errors"
)

// ErrStepLimit is the error Solve returns when a run needs more steps than
// its limit allows.
var ErrStepLimit = errors.New("norm: step limit exceeded")

// pollMask sets how often Solve polls its context: before visits 1, 65,
// 129 and so on. A power of two minus one.
const pollMask = 63

// Flow is one forward dataflow analysis over a Graph whose edge states have
// type S. The zero S means "no state".
type Flow[S comparable] interface {
	// Visit computes the states n sends along its successor edges. in holds
	// the set states on n's incoming edges, in Preds order and, within one
	// predecessor, in its Succs order; it is empty for the seed, even when
	// the seed has predecessors. out[i] holds the state last sent along
	// n.Succs[i], the zero S if none; Visit overwrites the slots it sends
	// along. Neither slice outlives the call.
	Visit(n *Node, in, out []S)
	// Equal reports whether two non-zero states are equal.
	Equal(a, b S) bool
}

// Solve runs f to a fixed point from seed with a FIFO worklist. After a
// visit, an out-edge takes the state Visit left in its slot, and its target
// is queued, only when that state is non-zero, a different value from the
// edge's state and not Equal to it; so an edge left alone keeps its state.
// Solve polls ctx before every 64th visit, starting with the first, and
// stops with ctx's error once it is done; with a positive limit it stops
// with ErrStepLimit before visit limit+1. It returns the visits it made.
func Solve[S comparable](ctx context.Context, g *Graph, seed *Node, limit int, f Flow[S]) (int, error) {
	var zero S
	// Node i's out-edge states are edges[off[i]:off[i+1]].
	off := make([]int, len(g.Nodes)+1)
	maxPreds, maxOut := 0, 0
	for i, n := range g.Nodes {
		off[i+1] = off[i] + len(n.Succs)
		maxPreds, maxOut = max(maxPreds, len(n.Preds)), max(maxOut, len(n.Succs))
	}
	// One allocation holds the edge states and the in and out buffers. A
	// node has at most maxIn in-states: each of its Preds entries gives at
	// most one per successor of that predecessor.
	total, maxIn := off[len(g.Nodes)], maxPreds*maxOut
	edges := make([]S, total+maxIn+maxOut)
	edges, inBuf, out := edges[:total:total], edges[total:total:total+maxIn], edges[total+maxIn:]

	// The worklist is a slice drained by index and compacted in place once
	// the drained prefix dominates. A node is queued at most once at a
	// time, so this capacity is rarely outgrown.
	work := make([]*Node, 1, 2*len(g.Nodes)+32)
	work[0] = seed
	head := 0
	inWork := make([]bool, len(g.Nodes))
	inWork[seed.ID] = true
	steps := 0
	for ; head < len(work); steps++ {
		if limit > 0 && steps == limit {
			return steps, ErrStepLimit
		}
		if steps&pollMask == 0 {
			if err := ctx.Err(); err != nil {
				return steps, err
			}
		}
		if head > 32 && head*2 >= len(work) {
			k := copy(work, work[head:])
			work, head = work[:k], 0
		}
		n := work[head]
		head++
		inWork[n.ID] = false

		in := inBuf
		if n != seed {
			for _, p := range n.Preds {
				for si, s := range p.Succs {
					if s != n {
						continue
					}
					if st := edges[off[p.ID]+si]; st != zero {
						in = append(in, st)
					}
				}
			}
		}
		own := edges[off[n.ID]:off[n.ID+1]]
		o := out[:len(own)]
		copy(o, own)
		f.Visit(n, in, o)
		for si, st := range o {
			if old := own[si]; st == zero || st == old || old != zero && f.Equal(old, st) {
				continue
			}
			own[si] = st
			if succ := n.Succs[si]; !inWork[succ.ID] {
				work = append(work, succ)
				inWork[succ.ID] = true
			}
		}
	}
	return steps, nil
}

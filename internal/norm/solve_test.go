package norm

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// loopDiamond builds entry(0) → head(1); head → body branch(2), exit(6);
// 2 → 3, 4 (a diamond) → join(5) → head (the back edge).
func loopDiamond() *Graph {
	g := &Graph{}
	for _, k := range []NodeKind{NodeEntry, NodeBranch, NodeBranch, NodeStmt, NodeStmt, NodeJoin, NodeExit} {
		g.newNode(k)
	}
	n := g.Nodes
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 6}, {2, 3}, {2, 4}, {3, 5}, {4, 5}, {5, 1}} {
		link(n[e[0]], n[e[1]])
	}
	g.Entry, g.Exit = n[0], n[6]
	return g
}

// countFlow sends the largest incoming state (1 at the seed) along every
// edge; the loop head adds one, up to limit. script overrides the state a
// node sends on a given visit (1-based), and Equal treats states that agree
// modulo 10 as equal.
type countFlow struct {
	t       *testing.T
	limit   int
	script  map[[2]int]int // {node ID, visit} → state sent
	onVisit func(visits int)

	order  []int
	ins    map[int][][]int // node ID → its in states, per visit
	visits map[int]int
}

func newCountFlow(t *testing.T, limit int) *countFlow {
	return &countFlow{t: t, limit: limit, ins: map[int][][]int{}, visits: map[int]int{}}
}

func (f *countFlow) Visit(n *Node, in, out []int) {
	f.order = append(f.order, n.ID)
	f.ins[n.ID] = append(f.ins[n.ID], append([]int{}, in...))
	f.visits[n.ID]++
	if f.onVisit != nil {
		f.onVisit(len(f.order))
	}
	st := 1
	for _, s := range in {
		st = max(st, s)
	}
	if n.ID == 1 && len(in) > 0 {
		st = min(st+1, f.limit)
	}
	if s, ok := f.script[[2]int{n.ID, f.visits[n.ID]}]; ok {
		st = s
	}
	for i := range out {
		out[i] = st
	}
}

func (f *countFlow) Equal(a, b int) bool {
	if a == b {
		f.t.Errorf("Equal(%d, %d): Solve compares identical states itself", a, b)
	}
	return a%10 == b%10
}

func TestSolveFIFOOrder(t *testing.T) {
	g := loopDiamond()
	f := newCountFlow(t, 3)
	steps, err := Solve[int](context.Background(), g, g.Entry, 0, f)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 6, 3, 4, 5, 1, 2, 6, 3, 4, 5, 1}
	if !reflect.DeepEqual(f.order, want) {
		t.Errorf("visit order %v, want %v", f.order, want)
	}
	if steps != len(want) {
		t.Errorf("steps %d, want %d", steps, len(want))
	}
	// In states come in Preds order: the head's entry edge before its back
	// edge, which is unset on the first visit.
	if want := [][]int{{1}, {1, 2}, {1, 3}}; !reflect.DeepEqual(f.ins[1], want) {
		t.Errorf("head in states %v, want %v", f.ins[1], want)
	}
	if want := [][]int{{2, 2}, {3, 3}}; !reflect.DeepEqual(f.ins[5], want) {
		t.Errorf("join in states %v, want %v", f.ins[5], want)
	}
}

func TestSolveSeedHasNoInStates(t *testing.T) {
	g := loopDiamond()
	f := newCountFlow(t, 3)
	head := g.Nodes[1]
	if _, err := Solve[int](context.Background(), g, head, 0, f); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2, 6, 3, 4, 5, 1}; !reflect.DeepEqual(f.order, want) {
		t.Errorf("visit order %v, want %v", f.order, want)
	}
	for i, in := range f.ins[1] {
		if len(in) != 0 {
			t.Errorf("seed visit %d got in states %v, want none", i+1, in)
		}
	}
}

// TestSolveKeepsUnchangedEdges scripts the diamond's arms on their second
// visit: a zero state or one Equal to the edge's state leaves the edge as
// it was and queues nothing, which the join's next in states show.
func TestSolveKeepsUnchangedEdges(t *testing.T) {
	firstPass := []int{0, 1, 2, 6, 3, 4, 5, 1, 2, 6, 3, 4}
	for _, tc := range []struct {
		name       string
		arm3, arm4 int     // the states nodes 3 and 4 send on their second visit
		joinIns    [][]int // the join's in states, per visit
	}{
		{name: "zero", arm3: 0, arm4: 3, joinIns: [][]int{{2, 2}, {2, 3}}},
		{name: "equal", arm3: 12, arm4: 3, joinIns: [][]int{{2, 2}, {2, 3}}},
		{name: "both", arm3: 0, arm4: 12, joinIns: [][]int{{2, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := loopDiamond()
			f := newCountFlow(t, 3)
			f.script = map[[2]int]int{{3, 2}: tc.arm3, {4, 2}: tc.arm4}
			if _, err := Solve[int](context.Background(), g, g.Entry, 0, f); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(f.ins[5], tc.joinIns) {
				t.Errorf("join in states %v, want %v", f.ins[5], tc.joinIns)
			}
			want := append(append([]int{}, firstPass...), 5, 1)
			if len(tc.joinIns) == 1 {
				want = firstPass
			}
			if !reflect.DeepEqual(f.order, want) {
				t.Errorf("visit order %v, want %v", f.order, want)
			}
		})
	}
}

func TestSolveStepLimit(t *testing.T) {
	g := loopDiamond()
	const visits = 14 // TestSolveFIFOOrder's run
	for _, limit := range []int{1, 5, visits - 1, visits, visits + 1} {
		f := newCountFlow(t, 3)
		steps, err := Solve[int](context.Background(), g, g.Entry, limit, f)
		wantErr, wantSteps := error(nil), visits
		if limit < visits {
			wantErr, wantSteps = ErrStepLimit, limit
		}
		if !errors.Is(err, wantErr) || steps != wantSteps || len(f.order) != wantSteps {
			t.Errorf("limit %d: steps %d, visits %d, err %v; want %d, %d, %v",
				limit, steps, len(f.order), err, wantSteps, wantSteps, wantErr)
		}
	}
}

func TestSolveCancelled(t *testing.T) {
	g := loopDiamond()
	for _, at := range []int{0, 1, 10, 64, 65} {
		ctx, cancel := context.WithCancel(context.Background())
		f := newCountFlow(t, 1000)
		f.onVisit = func(visits int) {
			if visits == at {
				cancel()
			}
		}
		if at == 0 {
			cancel()
		}
		steps, err := Solve[int](ctx, g, g.Entry, 0, f)
		cancel()
		// Solve polls before visits 1, 65, 129, ...
		want := (at + 63) / 64 * 64
		if !errors.Is(err, context.Canceled) || steps != want || len(f.order) != want {
			t.Errorf("cancelled at visit %d: steps %d, visits %d, err %v; want %d, %d, %v",
				at, steps, len(f.order), err, want, want, context.Canceled)
		}
	}
}

package structures

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/interp"
)

func TestDeclsWellFormed(t *testing.T) {
	env := Env()
	for _, name := range Names() {
		if env.Type(name) == nil {
			t.Errorf("declaration %s missing", name)
		}
	}
}

func TestTwoWayListBasics(t *testing.T) {
	h := interp.NewHeap()
	hd := TwoWayList(h, []int64{1, 2, 3}, 5)
	if got := listValues(hd); len(got) != 5 || got[0] != 1 || got[3] != 1 {
		t.Errorf("values = %v", got)
	}
	if listLen(hd) != 5 {
		t.Errorf("len = %d", listLen(hd))
	}
	if TwoWayList(h, nil, 0) != nil {
		t.Error("empty list should be nil")
	}
	if vs := interp.Check(Env(), hd); len(vs) != 0 {
		t.Fatalf("invalid list: %v", vs[0])
	}
}

func TestBinTreeInOrderSorted(t *testing.T) {
	h := interp.NewHeap()
	root := BinTree(h, []int64{5, 2, 8, 1, 9, 3, 7})
	got := inOrder(root)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("in-order not sorted: %v", got)
		}
	}
	if treeSize(root) != 7 {
		t.Errorf("size = %d", treeSize(root))
	}
	if vs := interp.Check(Env(), root); len(vs) != 0 {
		t.Fatalf("invalid tree: %v", vs[0])
	}
}

func TestOrthogonalSums(t *testing.T) {
	h := interp.NewHeap()
	dense := [][]int64{
		{1, 0, 2},
		{0, 0, 3},
		{4, 5, 0},
	}
	m := Orthogonal(h, dense)
	if rowSum(m, 0) != 3 || rowSum(m, 1) != 3 || rowSum(m, 2) != 9 {
		t.Errorf("row sums: %d %d %d", rowSum(m, 0), rowSum(m, 1), rowSum(m, 2))
	}
	if colSum(m, 0) != 5 || colSum(m, 1) != 5 || colSum(m, 2) != 5 {
		t.Errorf("col sums: %d %d %d", colSum(m, 0), colSum(m, 1), colSum(m, 2))
	}
	var roots []*interp.Node
	for _, n := range append(append([]*interp.Node{}, m.RowHead...), m.ColHead...) {
		if n != nil {
			roots = append(roots, n)
		}
	}
	if vs := interp.Check(Env(), roots...); len(vs) != 0 {
		t.Fatalf("invalid orthogonal list: %v", vs[0])
	}
}

func TestListOfListsValid(t *testing.T) {
	h := interp.NewHeap()
	m := ListOfLists(h, 4, 6)
	if vs := interp.Check(Env(), m); len(vs) != 0 {
		t.Fatalf("invalid LOLS: %v", vs[0])
	}
	// Every node reachable exactly once via down* then across*.
	count := 0
	for row := m; row != nil; row = row.Ptrs["down"] {
		for n := row; n != nil; n = n.Ptrs["across"] {
			count++
		}
	}
	if count != 24 {
		t.Errorf("visited %d nodes, want 24", count)
	}
}

func TestRangeTreeQuery(t *testing.T) {
	h := interp.NewHeap()
	pts := []Point{{5, 50}, {1, 10}, {9, 90}, {3, 30}, {7, 70}}
	root := RangeTree(h, pts)
	if vs := interp.Check(Env(), root); len(vs) != 0 {
		t.Fatalf("invalid range tree: %v", vs[0])
	}
	got := rangeQuery1D(root, 3, 7)
	want := []int64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("query = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query = %v, want %v", got, want)
		}
	}
	if RangeTree(h, nil) != nil {
		t.Error("empty range tree should be nil")
	}
}

func TestCircularRing(t *testing.T) {
	h := interp.NewHeap()
	c := Circular(h, 6)
	if ringLen(c) != 6 {
		t.Errorf("ring len = %d", ringLen(c))
	}
	if vs := interp.Check(Env(), c); len(vs) != 0 {
		t.Fatalf("circular list flagged: %v", vs[0])
	}
	if Circular(h, 0) != nil || ringLen(nil) != 0 {
		t.Error("empty ring handling")
	}
}

// TestPropertyAllStructuresValid is the E2 property: every randomly
// generated instance of every example structure satisfies its ADDS
// declaration's dynamic checks (Defs 4.2-4.9).
func TestPropertyAllStructuresValid(t *testing.T) {
	env := Env()
	for _, name := range Names() {
		name := name
		f := func(seed int64, sz uint8) bool {
			h := interp.NewHeap()
			rng := rand.New(rand.NewSource(seed))
			roots, err := Random(h, rng, name, int(sz%64)+1)
			if err != nil {
				return false
			}
			return len(interp.Check(env, roots...)) == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestPropertyListMutationPreservesValidity: random well-behaved splices of
// a two-way list (the operations the paper's validation pass certifies)
// keep the declaration valid.
func TestPropertyListMutationPreservesValidity(t *testing.T) {
	env := Env()
	f := func(seed int64, n uint8, ops uint8) bool {
		h := interp.NewHeap()
		rng := rand.New(rand.NewSource(seed))
		hd := TwoWayList(h, nil, int(n%20)+2)
		for i := 0; i < int(ops%10); i++ {
			// Remove a random interior node, repairing both directions —
			// the well-behaved idiom.
			k := rng.Intn(listLen(hd))
			node := hd
			for j := 0; j < k; j++ {
				node = node.Ptrs["next"]
			}
			prev, next := node.Ptrs["prev"], node.Ptrs["next"]
			if prev == nil || next == nil {
				continue // keep head/tail for simplicity
			}
			prev.Ptrs["next"] = next
			next.Ptrs["prev"] = prev
			node.Ptrs["next"], node.Ptrs["prev"] = nil, nil
		}
		return len(interp.Check(env, hd)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBrokenListDetected: breaking a list (shared node) is always
// detected by the dynamic checker.
func TestPropertyBrokenListDetected(t *testing.T) {
	env := Env()
	f := func(seed int64, n uint8) bool {
		size := int(n%16) + 3
		h := interp.NewHeap()
		rng := rand.New(rand.NewSource(seed))
		hd := TwoWayList(h, nil, size)
		// Point a random node's next at another random non-successor node.
		i := rng.Intn(size - 2)
		j := i + 2 + rng.Intn(size-i-2)
		a, b := hd, hd
		for k := 0; k < i; k++ {
			a = a.Ptrs["next"]
		}
		for k := 0; k < j; k++ {
			b = b.Ptrs["next"]
		}
		a.Ptrs["next"] = b // b now has two next-predecessors (or a skip)
		return len(interp.Check(env, hd)) != 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRandomUnknownName(t *testing.T) {
	h := interp.NewHeap()
	if _, err := Random(h, rand.New(rand.NewSource(1)), "Nope", 3); err == nil {
		t.Error("unknown structure must error")
	}
}

func TestRangeTreeLeafOrder(t *testing.T) {
	h := interp.NewHeap()
	pts := []Point{{4, 1}, {2, 2}, {8, 3}, {6, 4}, {1, 5}, {3, 6}, {9, 7}}
	root := RangeTree(h, pts)
	// Descend to leftmost leaf; leaf chain must be X-sorted.
	cur := root
	for cur.Ptrs["left"] != nil {
		cur = cur.Ptrs["left"]
	}
	var xs []int64
	for n := cur; n != nil; n = n.Ptrs["next"] {
		xs = append(xs, n.Ints["data"])
	}
	if len(xs) != len(pts) {
		t.Fatalf("leaf chain covers %d of %d points", len(xs), len(pts))
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			t.Fatalf("leaves not sorted: %v", xs)
		}
	}
}

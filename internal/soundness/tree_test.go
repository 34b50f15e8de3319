package soundness

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/structures"
)

// perfectTree builds a perfect PBinTree of the given depth (depth 1 is a
// single node), data = preorder index: the heap the tree soundness tests
// run their programs on.
func perfectTree(h *interp.Heap, depth int) *interp.Node {
	if depth <= 0 {
		return nil
	}
	idx := int64(0)
	var build func(d int) *interp.Node
	build = func(d int) *interp.Node {
		n := h.New("PBinTree")
		n.Ints["data"] = idx
		idx++
		if d > 1 {
			l, r := build(d-1), build(d-1)
			n.Ptrs["left"] = l
			n.Ptrs["right"] = r
			l.Ptrs["parent"] = n
			r.Ptrs["parent"] = n
		}
		return n
	}
	return build(depth)
}

func TestPerfectTree(t *testing.T) {
	h := interp.NewHeap()
	root := perfectTree(h, 4)
	if h.Size() != 15 {
		t.Errorf("size = %d", h.Size())
	}
	if vs := interp.Check(structures.Env(), root); len(vs) != 0 {
		t.Fatalf("invalid: %v", vs[0])
	}
	if perfectTree(h, 0) != nil {
		t.Error("depth 0 should be nil")
	}
}

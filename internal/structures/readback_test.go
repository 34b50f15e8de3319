package structures

import "repro/internal/interp"

// Read-back helpers: the builder tests walk what a builder made through
// these.

// listValues reads data fields along next.
func listValues(hd *interp.Node) []int64 {
	var out []int64
	for n := hd; n != nil; n = n.Ptrs["next"] {
		out = append(out, n.Ints["data"])
	}
	return out
}

// listLen counts nodes along next.
func listLen(hd *interp.Node) int {
	c := 0
	for n := hd; n != nil; n = n.Ptrs["next"] {
		c++
	}
	return c
}

// treeSize counts nodes via left/right.
func treeSize(root *interp.Node) int {
	if root == nil {
		return 0
	}
	return 1 + treeSize(root.Ptrs["left"]) + treeSize(root.Ptrs["right"])
}

// inOrder returns the data fields of an in-order walk.
func inOrder(root *interp.Node) []int64 {
	if root == nil {
		return nil
	}
	out := inOrder(root.Ptrs["left"])
	out = append(out, root.Ints["data"])
	return append(out, inOrder(root.Ptrs["right"])...)
}

// rowSum traverses row r along across.
func rowSum(m *SparseMatrix, r int) int64 {
	var s int64
	for n := m.RowHead[r]; n != nil; n = n.Ptrs["across"] {
		s += n.Ints["data"]
	}
	return s
}

// colSum traverses column c along down.
func colSum(m *SparseMatrix, c int) int64 {
	var s int64
	for n := m.ColHead[c]; n != nil; n = n.Ptrs["down"] {
		s += n.Ints["data"]
	}
	return s
}

// rangeQuery1D returns leaf data in [lo, hi] by descending to the first
// leaf >= lo and walking the leaf list.
func rangeQuery1D(root *interp.Node, lo, hi int64) []int64 {
	if root == nil {
		return nil
	}
	cur := root
	for cur.Ptrs["left"] != nil {
		if lo <= cur.Ints["data"] {
			cur = cur.Ptrs["left"]
		} else {
			cur = cur.Ptrs["right"]
		}
	}
	var out []int64
	for n := cur; n != nil; n = n.Ptrs["next"] {
		v := n.Ints["data"]
		if v > hi {
			break
		}
		if v >= lo {
			out = append(out, v)
		}
	}
	return out
}

// ringLen walks a circular list once around.
func ringLen(first *interp.Node) int {
	if first == nil {
		return 0
	}
	c := 1
	for n := first.Ptrs["next"]; n != nil && n != first; n = n.Ptrs["next"] {
		c++
	}
	return c
}

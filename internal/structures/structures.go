// Package structures provides concrete builders for every data structure
// the paper uses as an ADDS example (Section 3): the two-way linked list,
// the binary tree with parent pointers, the orthogonal list (sparse
// matrix), the list of lists, the two-dimensional range tree, and the
// circular list. Each builder constructs interp.Node heaps that satisfy the
// corresponding declaration, so the dynamic checker (interp.Check), the
// property tests, and the benchmarks all run against realistic instances.
//
// Decls is the single mini source of record for the declarations; every
// builder's output validates against it.
package structures

import (
	"fmt"
	"math/rand"

	"repro/internal/interp"
	"repro/internal/shape"
	"repro/internal/source/parser"
)

// Decls contains the paper's six ADDS declarations, verbatim modulo
// spelling.
const Decls = `
type TwoWayLL [X] {
    int data;
    TwoWayLL *next is uniquely forward along X;
    TwoWayLL *prev is backward along X;
};
type PBinTree [down] {
    int data;
    PBinTree *left, *right is uniquely forward along down;
    PBinTree *parent is backward along down;
};
type OrthL [X] [Y] {
    int data;
    OrthL *across is uniquely forward along X;
    OrthL *back is backward along X;
    OrthL *down is uniquely forward along Y;
    OrthL *up is backward along Y;
};
type LOLS [X] [Y] where X || Y {
    int data;
    LOLS *across is uniquely forward along X;
    LOLS *back is backward along X;
    LOLS *down is uniquely forward along Y;
    LOLS *up is backward along Y;
};
type TwoDRT [down] [sub] [leaves] where sub || down, sub || leaves {
    int data;
    TwoDRT *left, *right is uniquely forward along down;
    TwoDRT *subtree is uniquely forward along sub;
    TwoDRT *next is uniquely forward along leaves;
    TwoDRT *prev is backward along leaves;
};
type CirL [X] {
    int data;
    CirL *next is circular along X;
};
`

// Env returns the shape environment of the paper's declarations.
func Env() *shape.Env {
	return shape.MustBuild(parser.MustParse(Decls))
}

// ---------------------------------------------------------------------------
// TwoWayLL

// TwoWayList builds a doubly linked list of n nodes with the given values
// (values are cycled if shorter than n). It returns the head, or nil for
// n == 0.
func TwoWayList(h *interp.Heap, values []int64, n int) *interp.Node {
	var head, prev *interp.Node
	for i := 0; i < n; i++ {
		node := h.New("TwoWayLL")
		if len(values) > 0 {
			node.Ints["data"] = values[i%len(values)]
		} else {
			node.Ints["data"] = int64(i)
		}
		if prev == nil {
			head = node
		} else {
			prev.Ptrs["next"] = node
			node.Ptrs["prev"] = prev
		}
		prev = node
	}
	return head
}

// ---------------------------------------------------------------------------
// PBinTree

// BinTree builds a binary search tree with parent pointers from the keys,
// inserted in order. Duplicates go right.
func BinTree(h *interp.Heap, keys []int64) *interp.Node {
	var root *interp.Node
	for _, k := range keys {
		node := h.New("PBinTree")
		node.Ints["data"] = k
		if root == nil {
			root = node
			continue
		}
		cur := root
		for {
			if k < cur.Ints["data"] {
				if cur.Ptrs["left"] == nil {
					cur.Ptrs["left"] = node
					node.Ptrs["parent"] = cur
					break
				}
				cur = cur.Ptrs["left"]
			} else {
				if cur.Ptrs["right"] == nil {
					cur.Ptrs["right"] = node
					node.Ptrs["parent"] = cur
					break
				}
				cur = cur.Ptrs["right"]
			}
		}
	}
	return root
}

// ---------------------------------------------------------------------------
// Orthogonal list (sparse matrix)

// SparseMatrix is an orthogonal-list sparse matrix: row and column header
// chains of OrthL nodes, elements linked across (within a row) and down
// (within a column), as in the paper's Section 3.1 figure.
type SparseMatrix struct {
	Rows, Cols int
	RowHead    []*interp.Node // first element of each row, or nil
	ColHead    []*interp.Node // first element of each column, or nil
	Origin     *interp.Node   // top-left-most element, or nil
}

// Orthogonal builds a sparse matrix from a dense [][]int64, storing only
// non-zero entries. Type name: OrthL; data holds the value.
func Orthogonal(h *interp.Heap, dense [][]int64) *SparseMatrix {
	rows := len(dense)
	cols := 0
	if rows > 0 {
		cols = len(dense[0])
	}
	m := &SparseMatrix{
		Rows: rows, Cols: cols,
		RowHead: make([]*interp.Node, rows),
		ColHead: make([]*interp.Node, cols),
	}
	lastInRow := make([]*interp.Node, rows)
	lastInCol := make([]*interp.Node, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := dense[r][c]
			if v == 0 {
				continue
			}
			n := h.New("OrthL")
			n.Ints["data"] = v
			if lastInRow[r] == nil {
				m.RowHead[r] = n
			} else {
				lastInRow[r].Ptrs["across"] = n
				n.Ptrs["back"] = lastInRow[r]
			}
			lastInRow[r] = n
			if lastInCol[c] == nil {
				m.ColHead[c] = n
			} else {
				lastInCol[c].Ptrs["down"] = n
				n.Ptrs["up"] = lastInCol[c]
			}
			lastInCol[c] = n
			if m.Origin == nil {
				m.Origin = n
			}
		}
	}
	return m
}

// ---------------------------------------------------------------------------
// List of lists

// ListOfLists builds the paper's independent-dimension structure: a spine
// of row heads linked down/up, each row's elements linked across/back.
// Every node is reachable by exactly one forward traversal (down* then
// across*), so the X and Y dimensions are independent.
func ListOfLists(h *interp.Heap, rows, cols int) *interp.Node {
	var first, prevRow *interp.Node
	for r := 0; r < rows; r++ {
		rowHead := h.New("LOLS")
		rowHead.Ints["data"] = int64(r * cols)
		if prevRow == nil {
			first = rowHead
		} else {
			prevRow.Ptrs["down"] = rowHead
			rowHead.Ptrs["up"] = prevRow
		}
		prev := rowHead
		for c := 1; c < cols; c++ {
			n := h.New("LOLS")
			n.Ints["data"] = int64(r*cols + c)
			prev.Ptrs["across"] = n
			n.Ptrs["back"] = prev
			prev = n
		}
		prevRow = rowHead
	}
	return first
}

// ---------------------------------------------------------------------------
// Two-dimensional range tree

// Point is a 2D point for range trees.
type Point struct{ X, Y int64 }

// RangeTree builds a simplified two-dimensional range tree over the points
// (Section 3.1's three-dimensional example): a balanced binary tree over X
// whose leaves are linked into a two-way list (next/prev along leaves), and
// every internal node carries a subtree — a balanced binary tree over the
// Y values of the points below it, again with linked leaves.
func RangeTree(h *interp.Heap, pts []Point) *interp.Node {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]Point(nil), pts...)
	for i := 0; i < len(sorted); i++ { // insertion sort by X: deterministic
		for j := i; j > 0 && sorted[j].X < sorted[j-1].X; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var leaves []*interp.Node
	root := buildRange(h, sorted, &leaves, true)
	linkLeaves(leaves)
	return root
}

// buildRange builds a balanced tree over the points (by X when primary, by
// Y otherwise); leaves collect into the slice. Primary internal nodes and
// the primary root get Y-subtrees.
func buildRange(h *interp.Heap, pts []Point, leaves *[]*interp.Node, primary bool) *interp.Node {
	n := h.New("TwoDRT")
	if len(pts) == 1 {
		if primary {
			n.Ints["data"] = pts[0].X
		} else {
			n.Ints["data"] = pts[0].Y
		}
		if leaves != nil {
			*leaves = append(*leaves, n)
		}
		return n
	}
	mid := len(pts) / 2
	if primary {
		n.Ints["data"] = pts[mid-1].X
	} else {
		n.Ints["data"] = pts[mid-1].Y
	}
	l := buildRange(h, pts[:mid], leaves, primary)
	r := buildRange(h, pts[mid:], leaves, primary)
	n.Ptrs["left"] = l
	n.Ptrs["right"] = r
	if primary {
		// The secondary structure over Y for the points below this node.
		ys := append([]Point(nil), pts...)
		for i := 0; i < len(ys); i++ {
			for j := i; j > 0 && ys[j].Y < ys[j-1].Y; j-- {
				ys[j], ys[j-1] = ys[j-1], ys[j]
			}
		}
		n.Ptrs["subtree"] = buildRange(h, ys, nil, false)
	}
	return n
}

func linkLeaves(leaves []*interp.Node) {
	for i := 1; i < len(leaves); i++ {
		leaves[i-1].Ptrs["next"] = leaves[i]
		leaves[i].Ptrs["prev"] = leaves[i-1]
	}
}

// ---------------------------------------------------------------------------
// Circular list

// Circular builds a ring of n CirL nodes (n >= 1), data = index.
func Circular(h *interp.Heap, n int) *interp.Node {
	if n <= 0 {
		return nil
	}
	first := h.New("CirL")
	first.Ints["data"] = 0
	cur := first
	for i := 1; i < n; i++ {
		nd := h.New("CirL")
		nd.Ints["data"] = int64(i)
		cur.Ptrs["next"] = nd
		cur = nd
	}
	cur.Ptrs["next"] = first
	return first
}

// ---------------------------------------------------------------------------
// Random generation (for property tests and benchmarks)

// Random builds a random well-formed instance of the named structure with
// about size nodes, returning its roots. Structures are always valid with
// respect to their declarations.
func Random(h *interp.Heap, rng *rand.Rand, typeName string, size int) ([]*interp.Node, error) {
	if size < 1 {
		size = 1
	}
	switch typeName {
	case "TwoWayLL":
		vals := make([]int64, size)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		return []*interp.Node{TwoWayList(h, vals, size)}, nil
	case "PBinTree":
		keys := make([]int64, size)
		for i := range keys {
			keys[i] = rng.Int63n(int64(size * 10))
		}
		return []*interp.Node{BinTree(h, keys)}, nil
	case "OrthL":
		r := rng.Intn(size) + 1
		c := (size + r - 1) / r
		dense := make([][]int64, r)
		for i := range dense {
			dense[i] = make([]int64, c)
			for j := range dense[i] {
				if rng.Intn(2) == 0 {
					dense[i][j] = rng.Int63n(9) + 1
				}
			}
		}
		m := Orthogonal(h, dense)
		roots := append(append([]*interp.Node{}, m.RowHead...), m.ColHead...)
		var nonNil []*interp.Node
		for _, n := range roots {
			if n != nil {
				nonNil = append(nonNil, n)
			}
		}
		return nonNil, nil
	case "LOLS":
		r := rng.Intn(size) + 1
		c := (size + r - 1) / r
		return []*interp.Node{ListOfLists(h, r, c)}, nil
	case "TwoDRT":
		pts := make([]Point, size)
		for i := range pts {
			pts[i] = Point{X: rng.Int63n(1000), Y: rng.Int63n(1000)}
		}
		return []*interp.Node{RangeTree(h, pts)}, nil
	case "CirL":
		return []*interp.Node{Circular(h, size)}, nil
	}
	return nil, fmt.Errorf("unknown structure %q", typeName)
}

// Names lists the structures Random understands.
func Names() []string {
	return []string{"TwoWayLL", "PBinTree", "OrthL", "LOLS", "TwoDRT", "CirL"}
}

package estimate

import (
	"fmt"
	"math"
)

// Mode selects which estimator Propagate applies at each operator.
type Mode uint8

const (
	// ModeTopK propagates the worst-case top-k depths dL, dR (Equations
	// 2–5). This is the "Top-k Estimate" series of the paper's Figure 13.
	ModeTopK Mode = iota
	// ModeAnyK propagates the any-k depths cL, cR (Theorem 1) — the
	// "Any-k Estimate" series, a lower bound on the needed depths.
	ModeAnyK
	// ModeAvg propagates the average-case depths.
	ModeAvg
)

// Node is one operator of a rank-join plan tree for estimation purposes:
// an internal node is a rank-join with selectivity S; a leaf is a ranked
// base input with cardinality N and average decrement slab Slab.
//
// Propagate fills the computed fields K, CL, CR, DL, DR.
type Node struct {
	Left, Right *Node
	// S is the join selectivity of this operator (internal nodes).
	S float64
	// N is the base input cardinality (leaves).
	N float64
	// Slab is the average score decrement between consecutive ranked tuples
	// (leaves; used for the two-relation base case).
	Slab float64

	// K is the number of ranked results required from this node, set by
	// Propagate (the root receives the query's k; children receive their
	// parent's depth).
	K float64
	// CL, CR, DL, DR are the estimated depths into Left and Right.
	CL, CR, DL, DR float64
}

// Leaf constructs a leaf node.
func Leaf(n float64, slab float64) *Node { return &Node{N: n, Slab: slab} }

// Join constructs an internal rank-join node.
func Join(left, right *Node, s float64) *Node { return &Node{Left: left, Right: right, S: s} }

// IsLeaf reports whether the node is a base input.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Leaves returns the number of base ranked inputs under the node.
func (n *Node) Leaves() int {
	if n.IsLeaf() {
		return 1
	}
	return n.Left.Leaves() + n.Right.Leaves()
}

// OutCard returns the expected output cardinality of the node's full result:
// the product of leaf cardinalities and the selectivities on the path.
func (n *Node) OutCard() float64 {
	if n.IsLeaf() {
		return n.N
	}
	return n.S * n.Left.OutCard() * n.Right.OutCard()
}

// baseN returns the representative base-input cardinality under the node:
// the geometric mean of its leaf cardinalities (the paper assumes all equal).
func (n *Node) baseN() float64 {
	if n.IsLeaf() {
		return n.N
	}
	sum, cnt := n.lnNSum()
	return math.Exp(sum / float64(cnt))
}

func (n *Node) lnNSum() (float64, int) {
	if n.IsLeaf() {
		return math.Log(n.N), 1
	}
	ls, lc := n.Left.lnNSum()
	rs, rc := n.Right.lnNSum()
	return ls + rs, lc + rc
}

// Propagate implements the paper's Algorithm Propagate (Figure 8): it sets
// root.K = k, computes the root's depths with the chosen estimator, then
// recursively treats each child's depth as that child's required k. Depths
// are clamped to each child's maximum deliverable cardinality. It returns an
// error when the tree or parameters are malformed.
func Propagate(root *Node, k float64, mode Mode) error {
	if root == nil {
		return fmt.Errorf("estimate: nil plan")
	}
	if k <= 0 || math.IsNaN(k) {
		return fmt.Errorf("estimate: non-positive k %v", k)
	}
	root.K = k
	if root.IsLeaf() {
		// A leaf delivers its own tuples; nothing to split.
		if k > root.N {
			root.K = root.N
		}
		if root.K < 0 {
			root.K = 0
		}
		return nil
	}
	if math.IsNaN(root.S) || root.S < 0 {
		return fmt.Errorf("estimate: invalid selectivity %v", root.S)
	}
	// k cannot exceed the node's total output. A zero-output node — an empty
	// base input or a vanishing selectivity product — short-circuits: the
	// Section-4 estimators are undefined there (an unclamped k yields NaN/Inf
	// depths that would poison every estimate below it), and the
	// true depths are bounded by what the children deliver: in the worst case
	// the operator exhausts both inputs to prove no result exists. Every
	// field stays finite.
	oc := root.OutCard()
	if oc <= 0 {
		root.K = 0
		lOut := math.Max(root.Left.OutCard(), 0)
		rOut := math.Max(root.Right.OutCard(), 0)
		root.CL, root.CR, root.DL, root.DR = lOut, rOut, lOut, rOut
		if err := Propagate(root.Left, math.Max(lOut, 1), mode); err != nil {
			return err
		}
		return Propagate(root.Right, math.Max(rOut, 1), mode)
	}
	if k > oc {
		k = oc
		root.K = k
	}
	l := root.Left.Leaves()
	r := root.Right.Leaves()

	var d Depths
	var err error
	if l == 1 && r == 1 && root.Left.Slab > 0 && root.Right.Slab > 0 {
		// Base case with measured slabs.
		if mode == ModeAvg {
			d, err = TwoUniformAvg(k, root.S, root.Left.Slab, root.Right.Slab)
		} else {
			d, err = TwoUniform(k, root.S, root.Left.Slab, root.Right.Slab)
		}
	} else {
		n := root.baseN()
		switch mode {
		case ModeAvg:
			d, err = HierarchyAvg(k, root.S, l, r, n)
		default:
			d, err = HierarchyWorst(k, root.S, l, r, n)
		}
	}
	if err != nil {
		return err
	}
	// Clamp to what each child can produce; a degenerate estimate (NaN,
	// negative, or infinite) falls back to full child consumption.
	lOut, rOut := root.Left.OutCard(), root.Right.OutCard()
	clamp := func(v, lim float64) float64 {
		if math.IsNaN(v) || v < 0 || v > lim {
			return lim
		}
		return v
	}
	d.CL = clamp(d.CL, lOut)
	d.CR = clamp(d.CR, rOut)
	d.DL = clamp(d.DL, lOut)
	d.DR = clamp(d.DR, rOut)
	root.CL, root.CR, root.DL, root.DR = d.CL, d.CR, d.DL, d.DR

	childL, childR := d.DL, d.DR
	if mode == ModeAnyK {
		childL, childR = d.CL, d.CR
	}
	// Floor before clamping: a sub-1 estimate still demands one probe from
	// the child, but never more than the child can actually deliver — the
	// reverse order could push a child's required k above its own output.
	childL = math.Min(math.Max(childL, 1), lOut)
	childR = math.Min(math.Max(childR, 1), rOut)
	if err := Propagate(root.Left, childL, mode); err != nil {
		return err
	}
	return Propagate(root.Right, childR, mode)
}

// LeftDeep builds a left-deep rank-join tree over m base inputs, each with
// cardinality n and slab, with the same selectivity s at every join — the
// plan shape of the paper's experiments (Plan P).
func LeftDeep(m int, n, slab, s float64) (*Node, error) {
	if m < 2 {
		return nil, fmt.Errorf("estimate: left-deep tree needs >=2 inputs, got %d", m)
	}
	cur := Join(Leaf(n, slab), Leaf(n, slab), s)
	for i := 2; i < m; i++ {
		cur = Join(cur, Leaf(n, slab), s)
	}
	return cur, nil
}

// Balanced builds a balanced rank-join tree over m base inputs (m must be a
// power of two), matching plans like Figure 11's Plan P where two 2-way
// rank-joins feed a top rank-join.
func Balanced(m int, n, slab, s float64) (*Node, error) {
	if m < 2 || m&(m-1) != 0 {
		return nil, fmt.Errorf("estimate: balanced tree needs a power-of-two input count, got %d", m)
	}
	nodes := make([]*Node, m)
	for i := range nodes {
		nodes[i] = Leaf(n, slab)
	}
	for len(nodes) > 1 {
		next := make([]*Node, 0, len(nodes)/2)
		for i := 0; i < len(nodes); i += 2 {
			next = append(next, Join(nodes[i], nodes[i+1], s))
		}
		nodes = next
	}
	return nodes[0], nil
}

package plan

import (
	"math"

	"rankopt/internal/estimate"
)

// Cost returns the estimated cost for the plan rooted at n to deliver its
// first k output tuples. Blocking operators (Sort) charge their full price
// regardless of k; streaming operators prorate; rank-join operators consult
// the Section 4 depth model to convert k into input depths and recursively
// charge their children for exactly those depths — the cost-side mirror of
// Algorithm Propagate. TotalCost is Cost(Card).
func (n *Node) Cost(k float64) float64 { return n.CostFrom(k, n.inputCost) }

// inputCost is what child i charges to deliver its first k tuples.
func (n *Node) inputCost(i int, k float64) float64 { return n.Children[i].Cost(k) }

// CostFrom is Cost with the inputs' costs supplied by the caller: input(i, k)
// must return Children[i].Cost(k). The optimizer costs thousands of
// candidates over the same few inputs and already knows most of those
// answers; everything local to n is computed here, identically to Cost (a
// caller that also knows a join's local facts uses CostWith).
func (n *Node) CostFrom(k float64, input func(i int, k float64) float64) float64 {
	if k > n.Card {
		k = n.Card
	}
	if k < 0 {
		k = 0
	}
	p := n.P
	switch n.Op {
	case OpSeqScan:
		return p.SeqScan(n.Card, k)

	case OpIndexScan, OpIndexRange:
		clustered := n.Index != nil && n.Index.Clustered
		return p.IndexScan(k, clustered)

	case OpSort:
		in := n.Input()
		return input(0, in.Card) + p.Sort(in.Card)

	case OpFilter:
		in := n.Input()
		need := n.Card
		if n.Sel > 0 {
			need = math.Min(k/n.Sel, in.Card)
		}
		return input(0, need) + need*p.CPUTuple

	case OpNLJ, OpINLJ, OpHashJoin, OpMergeJoin, OpHRJN, OpNRJN:
		return n.CostWith(n.Local(k), input)

	case OpLimit:
		kk := math.Min(k, float64(n.K))
		return input(0, kk) + kk*p.CPUTuple

	case OpRank, OpProject:
		return input(0, k) + k*p.CPUTuple

	case OpHashAgg:
		// Blocking: the whole input is consumed and hashed before the first
		// group emerges.
		in := n.Input()
		return input(0, in.Card) + p.HashBuild(in.Card) + n.Card*p.CPUTuple

	case OpSortAgg:
		// Streaming: producing k groups consumes the matching input prefix.
		in := n.Input()
		frac := fraction(k, n.Card)
		return input(0, in.Card*frac) + in.Card*frac*p.CPUCompare + k*p.CPUTuple

	case OpTopK:
		// Bounded-heap sort: the whole input streams through a K-sized heap
		// — no sort I/O, O(n log K) CPU.
		in := n.Input()
		return input(0, in.Card) + p.HeapPush(in.Card, math.Max(float64(n.K), 2))

	case OpRankAgg:
		// Fagin's TA over m lists of ~BaseN objects: the expected sorted
		// depth per list is D = n^{(m-1)/m}·(m!·k)^{1/m}/m; every newly seen
		// object costs m-1 random probes. Each access is a random page.
		m := float64(len(n.TAInputs))
		if m < 1 {
			return math.Inf(1)
		}
		nn := math.Max(n.BaseN, 1)
		fact := 1.0
		for i := 2.0; i <= m; i++ {
			fact *= i
		}
		d := math.Pow(nn, (m-1)/m) * math.Pow(fact*math.Max(k, 1), 1/m) / m
		d = math.Min(math.Max(d, 1), nn)
		accesses := m*d + m*d*(m-1)
		return accesses*p.RandPage + m*d*p.CPUTuple

	case OpAnyK:
		// Any-k enumeration: every input is drained and bucketed up front
		// (the build), then each of the k results costs one heap pop plus at
		// most m successor pushes — a delay independent of the join's output
		// cardinality. The per-bucket suffix sort is charged at the expected
		// group size n·sel, not the full input.
		m := float64(len(n.Children))
		total := 0.0
		for i, c := range n.Children {
			g := math.Max(n.Sel*c.Card, 1)
			total += input(i, c.Card) + p.AnyKBuild(c.Card, g)
		}
		return total + p.AnyKDelay(math.Max(k, 1), m)

	default:
		panic("plan: Cost on unknown operator")
	}
}

// Local is what a join node charges at one demand apart from its inputs'
// costs: the number of tuples it demands of each input and its own cost
// terms, which CostWith adds to the inputs' costs in the order Cost always
// has. It follows from the node's own fields, its and its children's Card
// and the demand alone, so a caller costing many joins of one shape over
// inputs of the same cardinalities may compute it once and reuse it.
type Local struct {
	Need, Terms [2]float64
	// Queue is a rank join's expected ranking-queue size, the matches its
	// heap terms charge (Section 4's buffer bound: s·dL·dR for an HRJN,
	// s·dL·|R| for an NRJN); 0 for any other join.
	Queue float64
}

// Local returns the join node's local facts at demand k, clamped as Cost
// clamps it. The node must be a nested-loops, index nested-loops, hash,
// merge or rank join.
func (n *Node) Local(k float64) Local {
	if k > n.Card {
		k = n.Card
	}
	if k < 0 {
		k = 0
	}
	p := n.P
	switch n.Op {
	case OpNLJ:
		r := n.Right()
		outer := n.Left().Card * fraction(k, n.Card)
		// Inner is always fully materialized.
		return Local{Need: [2]float64{outer, r.Card}, Terms: [2]float64{p.NestedLoopCPU(outer, r.Card, k)}}

	case OpINLJ:
		outer := n.Left().Card * fraction(k, n.Card)
		matchesPerProbe := n.Sel * n.InnerCard
		return Local{Need: [2]float64{outer}, Terms: [2]float64{outer * p.IndexProbe(matchesPerProbe)}}

	case OpHashJoin:
		l := n.Left()
		probe := n.Right().Card * fraction(k, n.Card)
		return Local{Need: [2]float64{l.Card, probe}, Terms: [2]float64{p.HashBuild(l.Card), p.HashProbe(probe, k)}}

	case OpMergeJoin:
		frac := fraction(k, n.Card)
		dL, dR := n.Left().Card*frac, n.Right().Card*frac
		return Local{Need: [2]float64{dL, dR}, Terms: [2]float64{p.MergeCPU(dL, dR, k)}}

	case OpHRJN:
		dL, dR := n.Depths(k)
		buffered := n.Sel * dL * dR
		return Local{Need: [2]float64{dL, dR}, Terms: [2]float64{
			p.HashProbe(dL+dR, buffered),
			p.HeapPush(buffered, math.Max(buffered, 2)),
		}, Queue: buffered}

	case OpNRJN:
		dL := n.nrjnOuterDepth(k)
		r := n.Right()
		matches := n.Sel * dL * r.Card
		return Local{Need: [2]float64{dL, r.Card}, Terms: [2]float64{
			p.NestedLoopCPU(dL, r.Card, matches),
			p.HeapPush(matches, math.Max(matches, 2)),
		}, Queue: matches}
	}
	panic("plan: Local on a non-join node")
}

// CostWith is CostFrom for a join node whose local facts the caller
// supplies: loc must be n.Local(k) for the demand k being costed. The sum
// is formed term by term in Cost's order, so the result is Cost's to the
// last bit.
func (n *Node) CostWith(loc Local, input func(i int, k float64) float64) float64 {
	switch n.Op {
	case OpINLJ:
		return input(0, loc.Need[0]) + loc.Terms[0]
	case OpHashJoin:
		return input(0, loc.Need[0]) + loc.Terms[0] + input(1, loc.Need[1]) + loc.Terms[1]
	case OpNLJ, OpMergeJoin:
		return input(0, loc.Need[0]) + input(1, loc.Need[1]) + loc.Terms[0]
	}
	return input(0, loc.Need[0]) + input(1, loc.Need[1]) + loc.Terms[0] + loc.Terms[1]
}

// TotalCost is the cost to deliver the full output.
func (n *Node) TotalCost() float64 { return n.Cost(n.Card) }

// fraction returns produced/total clamped to [0,1]; producing from an empty
// output charges nothing extra.
func fraction(k, card float64) float64 {
	if card <= 0 {
		return 0
	}
	f := k / card
	if f > 1 {
		return 1
	}
	return f
}

// Depths returns the estimated input depths (dL, dR) a rank-join node needs
// to deliver its top-k results, clamped to what the children can produce:
// TwoUniform's when both inputs are single leaves with known slabs,
// otherwise estimate.Alternating's over the children's cardinalities, since
// HRJN reads a hierarchy's two inputs to one depth. Non-rank-join nodes
// panic.
func (n *Node) Depths(k float64) (float64, float64) {
	if !n.Op.IsRankJoin() {
		panic("plan: Depths on non-rank-join node")
	}
	k, s := n.depthArgs(k)
	var d estimate.Depths
	var err error
	if n.LLeaves == 1 && n.RLeaves == 1 && n.LSlab > 0 && n.RSlab > 0 {
		d, err = estimate.TwoUniform(k, s, n.LSlab, n.RSlab)
	} else {
		d, err = estimate.Alternating(k, s, maxInt(n.LLeaves, 1), maxInt(n.RLeaves, 1), n.Left().Card, n.Right().Card)
	}
	if err != nil {
		// Degenerate parameters: fall back to consuming everything.
		return n.Left().Card, n.Right().Card
	}
	dL := math.Min(d.DL, n.Left().Card)
	dR := math.Min(d.DR, n.Right().Card)
	if dL < 1 {
		dL = math.Min(1, n.Left().Card)
	}
	if dR < 1 {
		dR = math.Min(1, n.Right().Card)
	}
	return dL, dR
}

// depthArgs clamps a rank join's demand k to [1, Card] and its selectivity
// to (0, 1], the arguments of every depth estimate of the join.
func (n *Node) depthArgs(k float64) (float64, float64) {
	if k < 1 {
		k = 1
	}
	if k > n.Card && n.Card >= 1 {
		k = n.Card
	}
	s := n.Sel
	if s <= 0 {
		s = 1e-9
	}
	if s > 1 {
		s = 1
	}
	return k, s
}

// nrjnOuterDepth estimates the outer depth of an NRJN node: its inner is
// consumed fully and unsorted, so the one-sided analysis applies when both
// sides are single ranked base inputs with known slabs; hierarchies fall
// back to the symmetric model's left depth.
func (n *Node) nrjnOuterDepth(k float64) float64 {
	k, s := n.depthArgs(k)
	if n.LLeaves == 1 && n.RLeaves == 1 && n.LSlab > 0 && n.RSlab > 0 {
		if d, err := estimate.OneSidedDepth(k, s, n.LSlab, n.RSlab); err == nil {
			return math.Min(math.Max(d, 1), n.Left().Card)
		}
	}
	dL, _ := n.Depths(k)
	return dL
}

// PropagateK walks the plan tree pushing the requested output count k down
// to every node, as Algorithm Propagate does: each child receives the
// demand its parent's CostFrom charges it at the parent's own demand
// (Local.Need below a join — the estimated depths below a rank join — the
// whole input below a blocking operator, k/Sel below a Filter), so what is
// walked is what the optimizer priced. visit is called with each node and
// its required k, parents before children.
func PropagateK(root *Node, k float64, visit func(n *Node, k float64)) {
	propagate(root, 0, k, func(n *Node, nk float64) bool { visit(n, nk); return false })
}

// propagate is PropagateK over the plan as RebindK(root, bound) would leave
// it (bound 0: as it is), read without writing it: each node's demand is
// capped at the Card RebindK leaves (cardAt), and a child's is what
// n.CostFrom passes it, except in the k-bearing head RebindK rewrites, where
// a Limit passes min(k, bound) and a Rank or Project passes k. It stops once
// visit returns true, and reports whether it did.
func propagate(n *Node, bound int, k float64, visit func(n *Node, k float64) bool) bool {
	k = math.Min(k, cardAt(n, bound))
	if visit(n, k) {
		return true
	}
	stop := false
	input := func(i int, ck float64) float64 {
		stop = stop || propagate(n.Children[i], bound, ck, visit)
		return 0
	}
	switch {
	case bound > 0 && n.Op == OpLimit:
		input(0, math.Min(k, float64(bound)))
	case bound > 0 && (n.Op == OpRank || n.Op == OpProject):
		input(0, k)
	default:
		n.CostFrom(k, input)
	}
	return stop
}

// cardAt is n.Card as RebindK(root, bound) leaves it (bound 0: as it is).
func cardAt(n *Node, bound int) float64 {
	if bound <= 0 {
		return n.Card
	}
	switch n.Op {
	case OpLimit, OpTopK:
		return math.Min(float64(bound), cardAt(n.Input(), bound))
	case OpRankAgg:
		return math.Min(float64(bound), math.Max(n.BaseN, 1))
	case OpRank, OpProject:
		if len(n.Children) == 1 {
			return cardAt(n.Input(), bound)
		}
	}
	return n.Card
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

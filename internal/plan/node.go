// Package plan defines physical query plans: operator trees annotated with
// physical properties (order, pipelining), cardinality estimates, and
// k-parameterized costs. Rank-join plan nodes cost themselves through the
// Section 4 depth model, so a plan's cost to deliver its first k tuples —
// the quantity the paper's pruning rules compare — is available at every
// node. Plans compile to executable operator trees from package exec.
package plan

import (
	"slices"
	"sort"
	"strings"

	"rankopt/internal/catalog"
	"rankopt/internal/costmodel"
	"rankopt/internal/estimate"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/relation"
)

// OpType enumerates physical operators.
type OpType uint8

// Physical operator kinds.
const (
	OpSeqScan OpType = iota
	OpIndexScan
	OpSort
	OpFilter
	OpNLJ
	OpINLJ
	OpHashJoin
	OpMergeJoin
	OpHRJN
	OpNRJN
	OpLimit
	OpRank
	OpProject
	OpHashAgg
	OpSortAgg
	OpTopK
	OpIndexRange
	OpRankAgg
	OpAnyK
)

var opNames = map[OpType]string{
	OpSeqScan:    "SeqScan",
	OpIndexScan:  "IndexScan",
	OpSort:       "Sort",
	OpFilter:     "Filter",
	OpNLJ:        "NestedLoopsJoin",
	OpINLJ:       "IndexNLJoin",
	OpHashJoin:   "HashJoin",
	OpMergeJoin:  "MergeJoin",
	OpHRJN:       "HRJN",
	OpNRJN:       "NRJN",
	OpLimit:      "Limit",
	OpRank:       "Rank",
	OpProject:    "Project",
	OpHashAgg:    "HashAggregate",
	OpSortAgg:    "SortedAggregate",
	OpTopK:       "TopKSort",
	OpIndexRange: "IndexRangeScan",
	OpRankAgg:    "RankAggregateTA",
	OpAnyK:       "AnyK",
}

// String returns the operator's display name.
func (o OpType) String() string { return opNames[o] }

// IsRankJoin reports whether the operator is one of the rank-join methods.
func (o OpType) IsRankJoin() bool { return o == OpHRJN || o == OpNRJN }

// OrderKind classifies order properties.
type OrderKind uint8

// Order property kinds.
const (
	// OrderNone is the paper's "DC" (don't-care) property.
	OrderNone OrderKind = iota
	// OrderCol is a plain column ordering (interesting for merge joins and
	// ORDER BY columns).
	OrderCol
	// OrderRank orders descending on the sum of the ranking-score terms of
	// RankTables — the paper's interesting order *expression*.
	OrderRank
)

// OrderProp is a physical order property of a plan's output.
type OrderProp struct {
	Kind OrderKind
	// Col and Desc describe an OrderCol property.
	Col  expr.ColRef
	Desc bool
	// RankTables is the sorted table set whose combined score terms an
	// OrderRank property is ordered on (always descending).
	RankTables []string
}

// NoOrder is the DC property.
var NoOrder = OrderProp{Kind: OrderNone}

// ColOrder constructs a column order property.
func ColOrder(c expr.ColRef, desc bool) OrderProp {
	return OrderProp{Kind: OrderCol, Col: c, Desc: desc}
}

// RankOrder constructs a rank order property over the given tables.
func RankOrder(tables ...string) OrderProp {
	ts := append([]string(nil), tables...)
	sort.Strings(ts)
	return OrderProp{Kind: OrderRank, RankTables: ts}
}

// Key returns the canonical string of the property, for EXPLAIN and trace
// text; comparisons go through Equal and Covers.
func (o OrderProp) Key() string {
	switch o.Kind {
	case OrderNone:
		return "DC"
	case OrderCol:
		d := "asc"
		if o.Desc {
			d = "desc"
		}
		return "col:" + o.Col.String() + ":" + d
	case OrderRank:
		return "rank:" + strings.Join(o.RankTables, ",")
	}
	return "?"
}

// Equal reports property identity: same kind and, per kind, the same column
// and direction or the same ranked table set.
func (o OrderProp) Equal(p OrderProp) bool {
	if o.Kind != p.Kind {
		return false
	}
	switch o.Kind {
	case OrderCol:
		return o.Col == p.Col && o.Desc == p.Desc
	case OrderRank:
		return slices.Equal(o.RankTables, p.RankTables)
	}
	return true
}

// Covers reports whether having property o satisfies a requirement of p:
// every property covers DC; otherwise they must be identical.
func (o OrderProp) Covers(p OrderProp) bool {
	if p.Kind == OrderNone {
		return true
	}
	return o.Equal(p)
}

// Props is the physical property vector of a plan.
type Props struct {
	Order OrderProp
	// Pipelined marks plans that deliver early results without consuming
	// whole inputs — the First-N-Rows property that protects rank-join
	// plans from being pruned by cheaper blocking plans.
	Pipelined bool
}

// Dominates reports whether properties p are at least as strong as q:
// p's order covers q's and p is pipelined whenever q is.
func (p Props) Dominates(q Props) bool {
	if q.Pipelined && !p.Pipelined {
		return false
	}
	return p.Order.Covers(q.Order)
}

// Node is one physical plan operator. It is a flat struct: fields apply per
// OpType as documented inline. Children order: join nodes have [left,
// right]; unary nodes have [input]; scans have none.
type Node struct {
	Op       OpType
	Children []*Node

	// Table and Index identify the base relation / access path for scans
	// and the inner of an index nested-loops join.
	Table     string
	Index     *catalog.Index
	IndexDesc bool

	// Pred is a filter predicate (OpFilter) or residual join predicate.
	Pred expr.Expr

	// EqPreds are the equi-join predicates of a join node; the first is the
	// primary hash/merge/index key, the rest fold into the residual.
	EqPreds []logical.JoinPred

	// LScore and RScore are the per-input ranking contributions of a
	// rank-join node.
	LScore, RScore expr.ScoreSum

	// SortKeys define OpSort output order.
	SortKeys []exec.SortKey

	// K bounds OpLimit output.
	K int

	// Score is the ranking function for OpRank.
	Score expr.ScoreSum

	// Items are the OpProject output columns.
	Items []exec.ProjectItem

	// GroupBy and Aggs define OpHashAgg / OpSortAgg outputs.
	GroupBy []expr.ColRef
	Aggs    []exec.AggSpec

	// RangeLo/RangeHi bound an OpIndexRange scan (inclusive; HasLo/HasHi
	// mark which bounds apply).
	RangeLo, RangeHi relation.Value
	HasLo, HasHi     bool

	// TAInputs parameterize an OpRankAgg plan (Fagin's TA over ranked
	// lists sharing a unique object id).
	TAInputs []exec.TAInput

	// AnyKScores, AnyKLKeys, and AnyKRKeys parameterize an OpAnyK plan: the
	// per-child score contribution (child order = path order) and the m-1
	// adjacent equi-join key pairs (AnyKLKeys[i] over child i, AnyKRKeys[i]
	// over child i+1).
	AnyKScores           []expr.Expr
	AnyKLKeys, AnyKRKeys []expr.Expr

	// Card is the estimated full output cardinality.
	Card float64
	// Sel is the local selectivity (joins, filters).
	Sel float64
	// InnerCard is the inner relation cardinality for OpINLJ.
	InnerCard float64

	// LLeaves/RLeaves, BaseN, LSlab/RSlab parameterize the Section 4 depth
	// model for rank-join nodes: the number of ranked base inputs on each
	// side, the representative base cardinality, and the leaf score slabs.
	LLeaves, RLeaves int
	BaseN            float64
	LSlab, RSlab     float64

	// DepthHint, when non-nil on a rank-join node, carries empirically
	// observed depths for this table split (the engine's feedback loop).
	// Depths consults it before the Section-4 model. The pointed-to value is
	// immutable, so Clone shares it.
	DepthHint *estimate.Observed

	// P supplies the cost parameters; set once by the planner on every node.
	P *costmodel.Params

	// Props is the physical property vector.
	Props Props
}

// Left and Right return join children.
func (n *Node) Left() *Node  { return n.Children[0] }
func (n *Node) Right() *Node { return n.Children[1] }

// Input returns the single child of a unary node.
func (n *Node) Input() *Node { return n.Children[0] }

// Tables returns the sorted set of base tables under the node.
func (n *Node) Tables() []string {
	set := map[string]bool{}
	n.collectTables(set)
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

func (n *Node) collectTables(set map[string]bool) {
	if n.Table != "" {
		set[n.Table] = true
	}
	for _, c := range n.Children {
		c.collectTables(set)
	}
}

// DepthHintKey identifies a rank-join's table split for the depth-feedback
// loop: sorted left base tables + "|" + sorted right base tables. The
// optimizer attaches hints and the engine records observations under the
// same key, so measured depths map back onto the same split when the query
// is re-planned.
func DepthHintKey(n *Node) string {
	return strings.Join(n.Left().Tables(), ",") + "|" + strings.Join(n.Right().Tables(), ",")
}

// Walk visits the subtree pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// CountOps returns how many nodes of the given type the subtree contains.
func (n *Node) CountOps(op OpType) int {
	c := 0
	n.Walk(func(m *Node) {
		if m.Op == op {
			c++
		}
	})
	return c
}

package plan

import "math"

// Template is a reusable physical plan: the immutable output of one
// optimizer run, held by the engine's plan cache and instantiated once per
// session. The split matters for concurrency — the cached tree is shared by
// every session that hits the cache, so nothing may ever mutate it. All
// per-session state (the k rebinding, the depth-hint annotation, and the
// compiled operator tree) lives on a fresh Clone.
type Template struct {
	root *Node
	// k is the top-k bound the plan was optimized for (0 = unbounded).
	k int
	// Counters preserve the optimizer's enumeration and pruning work so
	// cache hits can still report it.
	Counters PlanCounters
}

// PlanCounters is one optimizer run's enumeration and pruning tally: plans
// considered, plans retained across MEMO entries, plans discarded by the
// Section 3.3 property+cost pruning, and pipelined plans that survived a
// cost domination only through the First-N-Rows protection.
type PlanCounters struct {
	Generated int
	Kept      int
	Pruned    int
	Protected int
}

// NewTemplate wraps an optimized plan for caching. The caller hands over
// ownership of root: it must not mutate the tree afterwards.
func NewTemplate(root *Node, k int, counters PlanCounters) *Template {
	return &Template{root: root, k: k, Counters: counters}
}

// K returns the bound the template was optimized at.
func (t *Template) K() int { return t.k }

// Instantiate returns a session-private copy of the plan, rebound to the
// requested k and annotated with depth hints for executor pre-sizing. The
// fingerprint the cache keys on parameterizes k out, so a template built at
// one k serves queries at another: the plan shape is reused and only the
// Limit/TopK/TA bounds are patched — the standard parameterized-plan trade
// (the shape was costed at the original k, the results stay exact).
func (t *Template) Instantiate(k int) *Node {
	root := t.root.Clone()
	if k > 0 && k != t.k {
		RebindK(root, k)
	}
	effK := float64(k)
	if effK <= 0 {
		effK = root.Card
	}
	AnnotateDepthHints(root, effK)
	return root
}

// Clone deep-copies the node tree. Node structs are copied; the immutable
// members they reference — expressions, catalog indexes, cost parameters,
// predicate slices — are shared, which is safe because nothing in compile
// or execution writes through them.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := *n
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return &c
}

// RebindK patches a new top-k bound into the k-bearing operators of a plan
// (Limit, TopKSort, RankAggregateTA) and refreshes the cardinality estimates
// above them. Only scalar fields are written, so it must run on a Clone,
// never on a cached template tree.
func RebindK(root *Node, k int) {
	for _, c := range root.Children {
		RebindK(c, k)
	}
	n := root
	switch n.Op {
	case OpLimit, OpTopK:
		n.K = k
		n.Card = math.Min(float64(k), n.Input().Card)
	case OpRankAgg:
		n.K = k
		n.Card = math.Min(float64(k), math.Max(n.BaseN, 1))
	case OpRank, OpProject:
		// Pass-through operators track their input's (possibly re-limited)
		// cardinality.
		if len(n.Children) == 1 {
			n.Card = n.Input().Card
		}
	}
}

// AnnotateDepthHints walks the plan pushing the requested output count down
// (Algorithm Propagate) and records each rank-join's estimated input depths
// in EstDL/EstDR. The compiler turns these into ranking-queue pre-sizing
// hints so the executor's pull loop avoids regrow cycles.
func AnnotateDepthHints(root *Node, k float64) {
	PropagateK(root, k, func(n *Node, nk float64) {
		if n.Op.IsRankJoin() {
			n.EstDL, n.EstDR = n.Depths(nk)
		}
	})
}

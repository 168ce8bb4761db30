package plan

import (
	"runtime"
	"sync"
)

// Template is a reusable physical plan: the immutable output of one
// optimizer run, held by the engine's plan cache, plus the compiled operator
// trees its sessions hand back. The plan tree is shared by every session
// that hits the cache, so nothing may ever mutate it. A plain session takes
// a compiled tree (Take) — a sharded one (CompileSharded) when the plan runs
// on the sharded tier — arms it with its own k and limits, and returns it
// after Close (Put); it reads its k-dependent estimates from the shared plan
// through DemandAt. Sessions that print or analyze their plan (EXPLAIN,
// EXPLAIN ANALYZE, traced) work on a private Instantiate copy instead.
type Template struct {
	root *Node
	// k is the top-k bound the plan was optimized for (0 = unbounded).
	k int
	// Counters preserve the optimizer's enumeration and pruning work so
	// cache hits can still report it.
	Counters PlanCounters

	// free holds the compiled trees no session has, at most GOMAXPROCS —
	// as many as can run at once. It is a plain list under mu rather than a
	// sync.Pool, so a warm session finds a tree whatever the collector did.
	mu   sync.Mutex
	free []*Tree
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

// Root returns the shared plan tree. Callers must not write to it.
func (t *Template) Root() *Node { return t.root }

// Take hands out one of the template's compiled trees, or nil when none is
// free and the caller must compile one. A template replaced in the plan
// cache takes its trees with it.
func (t *Template) Take() *Tree {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.free)
	if n == 0 {
		return nil
	}
	tree := t.free[n-1]
	t.free[n-1] = nil
	t.free = t.free[:n-1]
	return tree
}

// Put hands a closed tree back to the free list, which keeps at most
// GOMAXPROCS trees and drops the rest.
func (t *Template) Put(tree *Tree) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.free) < runtime.GOMAXPROCS(0) {
		t.free = append(t.free, tree)
	}
}

// Instantiate returns a session-private copy of the plan, rebound to the
// requested k (when positive). The fingerprint the cache keys on
// parameterizes k out, so a template built at one k serves queries at
// another: the plan shape is reused and only the Limit/TopK/TA bounds are
// patched — the standard parameterized-plan trade (the shape was costed at
// the original k, the results stay exact).
func (t *Template) Instantiate(k int) *Node {
	root := t.root.Clone()
	if k > 0 {
		RebindK(root, k)
	}
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

// RebindK patches a new top-k bound k > 0 into the k-bearing operators of a
// plan (Limit, TopKSort, RankAggregateTA) and refreshes the cardinality
// estimates above them (cardAt). Only scalar fields are written, so it must
// run on a Clone, never on a cached template tree.
func RebindK(root *Node, k int) {
	root.Walk(func(n *Node) {
		switch n.Op {
		case OpLimit, OpTopK, OpRankAgg:
			n.K = k
		}
		n.Card = cardAt(n, k)
	})
}

// DemandAt is the output count Algorithm Propagate asks of node target at
// top-k bound k (0 = unbounded): what PropagateK over Instantiate(k) passes
// target, read from the shared plan without copying it. Below the plan's
// k-bearing head (the Limit and the Rank and Project above it, which
// RebindK rewrites) each demand is the one the parent's CostFrom charges,
// and rank joins sit below that head, so their own Depths inputs are the
// same on the shared plan and on an instantiation. ok is false when target
// is not in the plan.
func DemandAt(root *Node, k int, target *Node) (demand float64, ok bool) {
	nk := float64(k)
	if k <= 0 {
		k, nk = 0, root.Card
	}
	ok = propagate(root, k, nk, func(n *Node, d float64) bool {
		demand = d
		return n == target
	})
	return demand, ok
}

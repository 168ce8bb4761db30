package core

import (
	"math"

	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
)

// This file registers the any-k ranked enumerator (exec.AnyK) as a physical
// plan candidate. AnyK consumes m unordered inputs arranged as a join path
// and emits the join's results in descending combined-score order with
// per-result delay independent of the join's output cardinality — the
// asymptotic advantage over the HRJN family, whose buffered partial results
// grow with the product of per-key group sizes. The candidate carries the
// OrderRank interesting-order property over all its tables, so the Section
// 3.3 machinery compares it against sort plans at the crossover k and
// against HRJN trees on equal footing; nothing here special-cases its
// selection.

// anyKPathWidthCap mirrors exec's maxJoinWidth: wider paths cannot compile.
const anyKPathWidthCap = 8

// anyKCandidates adds the any-k alternative for one MEMO entry when the
// subset qualifies: rank-aware query, every table ranked, and the subset's
// join graph admits a path ordering whose adjacent predicates imply every
// join predicate within the subset.
func (o *optimizer) anyKCandidates(acc *maskAcc) {
	if n := o.anyKPlanFor(acc.mask); n != nil {
		acc.add(n)
	}
}

// anyKPlanFor builds the any-k plan covering the mask, or nil when the
// subset does not qualify.
func (o *optimizer) anyKPlanFor(mask uint64) *plan.Node {
	if o.opts.DisableAnyK || !o.rankAware() {
		return nil
	}
	tis := o.tablesOf(mask)
	if len(tis) < 2 || len(tis) > anyKPathWidthCap {
		return nil
	}
	// Every input contributes to the path's combined score; a score-less
	// table would need a zero term and never arises in the ranked workloads.
	for _, ti := range tis {
		if ti.term == nil {
			return nil
		}
	}
	path, preds := o.anyKPath(tis)
	if path == nil || !o.anyKPathSound(mask, preds) {
		return nil
	}
	return o.anyKNode(mask, path, preds)
}

// tablesOf returns the tableInfos under the mask in table order.
func (o *optimizer) tablesOf(mask uint64) []*tableInfo {
	var out []*tableInfo
	for _, ti := range o.tables {
		if mask&(1<<uint(ti.idx)) != 0 {
			out = append(out, ti)
		}
	}
	return out
}

// anyKPath searches for a Hamiltonian path over the subset's join graph in
// which every adjacent pair is connected by exactly one equivalence-class
// predicate (a composite-key edge would leave the extra class unenforced).
// The DFS visits tables in index order, so the chosen path — and therefore
// the emitted plan — is deterministic.
func (o *optimizer) anyKPath(tis []*tableInfo) ([]*tableInfo, []logical.JoinPred) {
	m := len(tis)
	used := make([]bool, m)
	path := make([]*tableInfo, 0, m)
	preds := make([]logical.JoinPred, 0, m-1)
	var dfs func() bool
	dfs = func() bool {
		if len(path) == m {
			return true
		}
		for i := 0; i < m; i++ {
			if used[i] {
				continue
			}
			pushed := false
			if len(path) > 0 {
				last := path[len(path)-1]
				ps, _ := o.selectivityBetween(
					uint64(1)<<uint(last.idx), uint64(1)<<uint(tis[i].idx))
				if len(ps) != 1 {
					continue
				}
				preds = append(preds, ps[0])
				pushed = true
			}
			used[i] = true
			path = append(path, tis[i])
			if dfs() {
				return true
			}
			used[i] = false
			path = path[:len(path)-1]
			if pushed {
				preds = preds[:len(preds)-1]
			}
		}
		return false
	}
	if dfs() {
		return path, preds
	}
	return nil, nil
}

// anyKPathSound verifies that the chosen adjacent predicates imply every
// closure join predicate within the mask: union the columns each chosen
// predicate equates, then require both sides of every in-mask closure
// predicate to land in one component. A predicate outside the implied set
// would silently go unenforced — the path must reject such subsets (they
// keep their HRJN/hash alternatives).
func (o *optimizer) anyKPathSound(mask uint64, chosen []logical.JoinPred) bool {
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }
	for _, jp := range chosen {
		union(jp.L.String(), jp.R.String())
	}
	for _, j := range o.joins {
		if j.lBit&mask == 0 || j.rBit&mask == 0 {
			continue
		}
		if find(j.L.String()) != find(j.R.String()) {
			return false
		}
	}
	return true
}

// anyKNode builds the plan node: one cheap unordered access per path table
// (the build phase sorts internally, so ranked access paths would be wasted
// cost), the per-input score contributions, and the adjacent key pairs. The
// node's order property is the rank order over all its tables — the same
// interesting-order class a fully-pipelined rank-join tree earns — but it is
// blocking: no result appears before the build finishes.
func (o *optimizer) anyKNode(mask uint64, path []*tableInfo, preds []logical.JoinPred) *plan.Node {
	m := len(path)
	children := make([]*plan.Node, m)
	scores := make([]expr.Expr, m)
	card := 1.0
	for i, ti := range path {
		children[i] = o.cheapBase(ti)
		scores[i] = expr.Sum(*ti.term)
		card *= ti.card
	}
	lkeys := make([]expr.Expr, m-1)
	rkeys := make([]expr.Expr, m-1)
	selProd := 1.0
	for i, jp := range preds {
		lkeys[i] = jp.L
		rkeys[i] = jp.R
		selProd *= o.cat.JoinSelectivity(jp.L, jp.R)
	}
	e := o.entry(mask)
	return &plan.Node{
		Op:         plan.OpAnyK,
		Children:   children,
		AnyKScores: scores,
		AnyKLKeys:  lkeys,
		AnyKRKeys:  rkeys,
		Card:       math.Max(card*selProd, 1e-9),
		// Sel is the representative adjacent-pair selectivity: the cost
		// model's expected per-key bucket size is Sel times the input card.
		Sel:   math.Pow(selProd, 1/float64(m-1)),
		P:     o.params,
		Props: plan.Props{Order: e.order, Pipelined: false},
	}
}

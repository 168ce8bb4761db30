package core

import (
	"math"

	"rankopt/internal/expr"
	"rankopt/internal/plan"
)

// Greedy fallback reasons: why a PlannerGreedy request ran the DP instead.
// Reported in Result.GreedyFallbackReason and counted per reason by the
// engine's raqo_greedy_fallbacks_total metric.
const (
	GreedyFallbackSingleTable = "single_table"
	GreedyFallbackGrouped     = "grouped"
	GreedyFallbackTraced      = "traced"
	GreedyFallbackKeepAll     = "keep_all"
	// GreedyFallbackNoPlan: the left-deep walk could not complete a
	// connected plan (e.g. a Cartesian-only step remained).
	GreedyFallbackNoPlan = "no_plan"
)

// greedyPlan is the planner's fast path: one left-deep join plan built in
// microseconds from signals visible without enumerating the memo — filtered
// cardinalities (predicate constants), join-graph connectivity, and
// ranked-input availability. It starts at the most constrained table and
// repeatedly attaches the connected neighbor minimizing the expected
// intermediate cardinality, choosing the physical join per step from a
// constant-size candidate set (HRJN when both sides are ranked, INLJ on an
// indexed join column, hash join otherwise) by the same cost model the DP
// uses. Returns nil for shapes it cannot order confidently — grouped queries
// (the aggregation placement needs the full plan set), traced sessions
// (EXPLAIN TRACE documents the DP's decisions), plan-space collection modes,
// and single-table queries — letting the caller fall back to the DP. The
// second return names why the fallback happened (one of the GreedyFallback*
// constants, "" when a plan was produced), so the engine can count fallback
// causes instead of one opaque bool.
func (o *optimizer) greedyPlan() (*plan.Node, string) {
	switch {
	case len(o.tables) < 2:
		return nil, GreedyFallbackSingleTable
	case o.q.Grouped():
		return nil, GreedyFallbackGrouped
	case o.opts.Tracer != nil:
		return nil, GreedyFallbackTraced
	case o.opts.KeepAllPlans:
		return nil, GreedyFallbackKeepAll
	}

	// Join-graph degree: how many distinct other tables each table joins to.
	degree := make([]int, len(o.tables))
	for i := range o.tables {
		seen := map[string]bool{}
		for _, j := range o.joins {
			if j.L.Table == o.tables[i].name && !seen[j.R.Table] {
				seen[j.R.Table] = true
				degree[i]++
			} else if j.R.Table == o.tables[i].name && !seen[j.L.Table] {
				seen[j.L.Table] = true
				degree[i]++
			}
		}
	}

	// Start at the most constrained table: smallest filtered cardinality
	// (predicate constants shrink card via filtSel), then highest join-graph
	// degree, then ranked tables first (a ranked start feeds rank joins from
	// the bottom of the pipeline).
	start := o.tables[0]
	better := func(a, b *tableInfo) bool {
		if a.card != b.card {
			return a.card < b.card
		}
		if degree[a.idx] != degree[b.idx] {
			return degree[a.idx] > degree[b.idx]
		}
		if (a.term != nil) != (b.term != nil) {
			return a.term != nil
		}
		return a.idx < b.idx
	}
	for _, ti := range o.tables[1:] {
		if better(ti, start) {
			start = ti
		}
	}

	// Which access wins for the start table — the pipelined descending
	// score-index scan or the blocking sort over a cheap scan — depends on
	// the depth the pipeline above will actually demand, which is unknowable
	// until the joins are placed. Both starts are cheap to carry to
	// completion (the greedy walk is linear), so build one plan per start
	// variant and keep the cheaper finished prefix.
	var best *plan.Node
	bestCost := math.Inf(1)
	for _, base := range o.greedyStartCandidates(start) {
		p := o.greedyFrom(start, base, degree)
		if p == nil {
			continue
		}
		if c := o.greedyFinalCost(p); c < bestCost {
			best, bestCost = p, c
		}
	}
	// The any-k enumerator is a single full-query operator, not a per-step
	// join choice, so it competes against the finished left-deep walk.
	if ak := o.anyKPlanFor(o.fullMask()); ak != nil {
		if c := o.greedyFinalCost(ak); c < bestCost {
			best, bestCost = ak, c
		}
	}
	if best == nil {
		return nil, GreedyFallbackNoPlan
	}
	return best, ""
}

// greedyFrom completes the left-deep walk from one access path of the start
// table.
func (o *optimizer) greedyFrom(start *tableInfo, base *plan.Node, degree []int) *plan.Node {
	cur := base
	curMask := uint64(1) << uint(start.idx)
	remaining := make([]*tableInfo, 0, len(o.tables)-1)
	for _, ti := range o.tables {
		if ti != start {
			remaining = append(remaining, ti)
		}
	}
	kEval := o.kmin

	for len(remaining) > 0 {
		// Next table: the connected neighbor minimizing the expected
		// intermediate output cardinality s·|cur|·|t|.
		bestI := -1
		bestOut := math.Inf(1)
		for i, ti := range remaining {
			preds, s := o.selectivityBetween(curMask, uint64(1)<<uint(ti.idx))
			if len(preds) == 0 {
				continue // would be a Cartesian product; try others first
			}
			out := math.Max(s*cur.Card*ti.card, 1e-9)
			if out < bestOut || (out == bestOut && degree[ti.idx] > degree[remaining[bestI].idx]) {
				bestOut = out
				bestI = i
			}
		}
		if bestI == -1 {
			// No connected next table: Validate guarantees a connected join
			// graph, so this is unreachable — but an unordered shape falls
			// back to the DP rather than building a Cartesian product.
			return nil
		}
		next := remaining[bestI]
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
		cur = o.greedyJoin(cur, curMask, next, kEval)
		curMask |= uint64(1) << uint(next.idx)
	}
	return cur
}

// greedyRankedVariants returns the ranked access alternatives for a base
// table of a rank-aware query: the pipelined descending score-index scan and
// the sort-enforced cheap access, mirroring enumerateBase's ranked
// alternatives. Neither dominates — the index scan pays per-row random
// access and wins only at shallow depths, the sort pays its full blocking
// price up front — so both are surfaced and the per-step Cost(k) comparison
// (which propagates k into rank-join input depths) picks per context.
// Returns nil for unranked tables.
func (o *optimizer) greedyRankedVariants(ti *tableInfo) []*plan.Node {
	if !o.rankAware() || ti.term == nil {
		return nil
	}
	var out []*plan.Node
	rankProp := plan.RankOrder(ti.name)
	if ti.termIsCol {
		if idx := o.cat.IndexOn(ti.name, ti.termCol.Name); idx != nil {
			out = append(out, o.wrapFilters(ti, &plan.Node{
				Op:        plan.OpIndexScan,
				Table:     ti.name,
				Index:     idx,
				IndexDesc: true,
				Card:      ti.rawCard,
				LSlab:     ti.termSlab,
				P:         o.params,
				Props:     plan.Props{Order: rankProp, Pipelined: true},
			}))
		}
	}
	if !o.opts.DisableEnforcedRankInputs {
		s := o.sortWrap(o.cheapBase(ti), sortKeysByScore(expr.Sum(*ti.term)), rankProp)
		s.LSlab = ti.termSlab
		out = append(out, s)
	}
	return out
}

// greedyStartCandidates are the access paths the greedy walk may begin from:
// every ranked variant plus the cheapest unordered access (an unranked start
// still feeds hash joins whose output a single final sort can rank).
func (o *optimizer) greedyStartCandidates(ti *tableInfo) []*plan.Node {
	return append(o.greedyRankedVariants(ti), o.cheapBase(ti))
}

// greedyFinalCost scores a finished greedy join plan the way the per-step
// selection does: a plan covering the query's rank order is charged at k; a
// plan that lost the order will be consumed wholesale by the final sort
// enforcer, so it pays its full cost plus the sort.
func (o *optimizer) greedyFinalCost(p *plan.Node) float64 {
	full := o.entry(o.fullMask())
	if o.q.Ranking() && !(len(full.ranked) > 0 && p.Props.Order.Covers(full.order)) {
		return p.Cost(p.Card) + o.params.Sort(p.Card)
	}
	k := o.kmin
	if k <= 0 || k > p.Card {
		k = p.Card
	}
	return p.Cost(k)
}

// greedyJoin attaches table next to the current left-deep prefix, picking the
// cheapest of a constant-size candidate set at the query's k: a rank join
// when both sides carry score terms (with enforced ranked inputs as needed),
// an index nested-loop join when next has an index on the join column, and a
// hash join oriented to preserve whichever side's rank order survives.
func (o *optimizer) greedyJoin(cur *plan.Node, curMask uint64, next *tableInfo, kEval float64) *plan.Node {
	nextMask := uint64(1) << uint(next.idx)
	mask := curMask | nextMask
	preds, s := o.selectivityBetween(curMask, nextMask)
	jcard := math.Max(s*cur.Card*next.card, 1e-9)

	var cands []*plan.Node

	// HRJN: both sides ranked (enforcing the ranked orders where missing).
	// Every ranked access variant of next becomes its own candidate — which
	// input shape wins depends on the depth this join will demand, and the
	// Cost(k) comparison below is what knows that.
	eCur, eNext, eOut := o.entry(curMask), o.entry(nextMask), o.entry(mask)
	if o.rankAware() && !o.opts.DisableHRJN && next.term != nil && len(eCur.ranked) > 0 {
		l := cur
		if !cur.Props.Order.Covers(eCur.order) {
			if o.opts.DisableEnforcedRankInputs {
				l = nil
			} else {
				l = o.sortWrap(cur, sortKeysByScore(eCur.score), eCur.order)
			}
		}
		if l != nil {
			outOrder := eOut.order
			for _, r := range o.greedyRankedVariants(next) {
				if !r.Props.Order.Covers(plan.RankOrder(next.name)) {
					continue
				}
				n := o.rankJoinNode(plan.OpHRJN, l, r, curMask, nextMask, preds, s, jcard)
				n.Props = plan.Props{
					Order:     outOrder,
					Pipelined: l.Props.Pipelined && r.Props.Pipelined,
				}
				cands = append(cands, n)
			}
			// NRJN: only the outer need be ranked; the inner is a cheap
			// unsorted materialization. Wins over HRJN when the join is
			// unselective enough that descending the inner's ranking is
			// wasted work.
			if !o.opts.DisableNRJN {
				n := o.rankJoinNode(plan.OpNRJN, l, o.cheapBase(next), curMask, nextMask, preds, s, jcard)
				n.Props = plan.Props{
					Order:     outOrder,
					Pipelined: l.Props.Pipelined,
				}
				cands = append(cands, n)
			}
		}
	}

	// INLJ: next is a base table; probe its index on the join column.
	if idx := o.cat.IndexOn(next.name, preds[0].R.Name); idx != nil {
		cands = append(cands, &plan.Node{
			Op:        plan.OpINLJ,
			Children:  []*plan.Node{cur},
			Table:     next.name,
			Index:     idx,
			EqPreds:   preds,
			Pred:      expr.And(next.filters...),
			Card:      jcard,
			Sel:       s * next.filtSel,
			InnerCard: next.rawCard,
			P:         o.params,
			Props: plan.Props{
				Order:     preserveOuter(cur.Props, eNext),
				Pipelined: cur.Props.Pipelined,
			},
		})
	}

	// Hash join. When the prefix is unranked but next is ranked, build on the
	// prefix and probe the ranked access so its order survives the join;
	// otherwise build on next and probe the prefix, preserving its order.
	if o.rankAware() && next.term != nil && len(eCur.ranked) == 0 {
		probes := o.greedyRankedVariants(next)
		if len(probes) == 0 {
			probes = []*plan.Node{o.cheapBase(next)}
		}
		for _, r := range probes {
			cands = append(cands, &plan.Node{
				Op:       plan.OpHashJoin,
				Children: []*plan.Node{cur, r},
				EqPreds:  preds,
				Card:     jcard,
				Sel:      s,
				P:        o.params,
				Props: plan.Props{
					Order:     preserveOuter(r.Props, eCur),
					Pipelined: r.Props.Pipelined,
				},
			})
		}
	} else {
		b := o.cheapBase(next)
		rev, _ := o.selectivityBetween(nextMask, curMask)
		cands = append(cands, &plan.Node{
			Op:       plan.OpHashJoin,
			Children: []*plan.Node{b, cur},
			EqPreds:  rev,
			Card:     jcard,
			Sel:      s,
			P:        o.params,
			Props: plan.Props{
				Order:     preserveOuter(cur.Props, eNext),
				Pipelined: cur.Props.Pipelined,
			},
		})
	}

	k := kEval
	if k <= 0 || k > jcard {
		k = jcard
	}
	// A candidate that keeps the rank order can stop after k results; one
	// that loses it will be consumed wholesale by the eventual sort enforcer,
	// so it pays its full cost — the greedy mirror of the paper's
	// First-N-Rows pipeline protection. Without it a pipelined-but-unordered
	// join looks absurdly cheap at small k and dooms the plan to a full sort.
	evalCost := func(c *plan.Node) float64 {
		if o.q.Ranking() && !(len(eOut.ranked) > 0 && c.Props.Order.Covers(eOut.order)) {
			return c.Cost(c.Card)
		}
		return c.Cost(k)
	}
	best := cands[0]
	bestCost := evalCost(best)
	for _, c := range cands[1:] {
		if cc := evalCost(c); cc < bestCost {
			bestCost = cc
			best = c
		}
	}
	return best
}

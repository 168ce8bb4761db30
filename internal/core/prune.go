package core

import (
	"fmt"
	"math"

	"rankopt/internal/plan"
)

// costEps tolerates floating-point noise in cost comparisons.
const costEps = 1e-9

// pruneCounters tallies one enumeration's pruning work: candidates
// considered, candidates rejected by an existing dominator, existing plans
// evicted by a stronger candidate, and pipelined plans that a cheaper
// blocking plan would have removed but for the First-N-Rows protection.
// Each MEMO entry tallies its own, merged into the total once it completes.
type pruneCounters struct {
	gen       int
	pruned    int
	evicted   int
	protected int
}

// merge folds an entry's counters into the optimizer total.
func (pc *pruneCounters) merge(other pruneCounters) {
	pc.gen += other.gen
	pc.pruned += other.pruned
	pc.evicted += other.evicted
	pc.protected += other.protected
}

// insertPruned adds a costed candidate to a plan list, applying the paper's
// property + cost pruning: a plan is pruned iff another plan for the
// same expression has properties at least as strong AND is at most as
// expensive at every achievable k (Section 3.3). Existing plans dominated by
// the candidate are evicted (plans is filtered in place). kept reports
// whether the candidate is now the list's last element; the node is stored
// as given, so a caller that assembled it in scratch space replaces it with
// a heap copy. Pruning outcomes land in pc and, when a Tracer is attached,
// as decision events.
func (o *optimizer) insertPruned(e *entryInfo, plans []memoPlan, cand memoPlan, pc *pruneCounters) (_ []memoPlan, kept bool) {
	tr := o.opts.Tracer
	candProtected := false
	for i := range plans {
		p := &plans[i]
		dom, prot := o.dominatesExplained(p, &cand)
		if dom {
			pc.pruned++
			if tr != nil {
				tr.OnDecision(Decision{
					Kind:       DecisionPruned,
					Level:      e.level,
					Entry:      e.label,
					Plan:       plan.Summary(cand.n),
					Rival:      plan.Summary(p.n),
					CrossoverK: crossoverFor(cand.n, p.n),
					Note:       o.domNote(p.n, cand.n),
				})
			}
			return plans, false
		}
		// The candidate stays in the entry even though p is cheaper at every
		// achievable k — the First-N-Rows property is doing the protecting.
		// Count it once per candidate, however many blocking rivals it beat.
		if prot && !candProtected {
			candProtected = true
			pc.protected++
			if tr != nil {
				tr.OnDecision(Decision{
					Kind:  DecisionProtected,
					Level: e.level,
					Entry: e.label,
					Plan:  plan.Summary(cand.n),
					Rival: plan.Summary(p.n),
					Note:  "pipelined plan kept despite cheaper blocking rival (First-N-Rows)",
				})
			}
		}
	}
	survivors := plans[:0]
	for i := range plans {
		p := &plans[i]
		dom, prot := o.dominatesExplained(&cand, p)
		if dom {
			pc.evicted++
			if tr != nil {
				tr.OnDecision(Decision{
					Kind:       DecisionEvicted,
					Level:      e.level,
					Entry:      e.label,
					Plan:       plan.Summary(p.n),
					Rival:      plan.Summary(cand.n),
					CrossoverK: crossoverFor(p.n, cand.n),
					Note:       o.domNote(cand.n, p.n),
				})
			}
			continue
		}
		if prot {
			pc.protected++
			if tr != nil {
				tr.OnDecision(Decision{
					Kind:  DecisionProtected,
					Level: e.level,
					Entry: e.label,
					Plan:  plan.Summary(p.n),
					Rival: plan.Summary(cand.n),
					Note:  "pipelined plan kept despite cheaper blocking rival (First-N-Rows)",
				})
			}
		}
		survivors = append(survivors, *p)
	}
	return append(survivors, cand), true
}

// dominatesExplained reports whether plan a makes plan b redundant, and —
// when it does not — whether b survived *only* through the First-N-Rows
// protection (a wins on cost at every achievable k and on every property
// except b's Pipelined flag). Properties must dominate; costs are compared
// at the two ends of the achievable range of k — kmin (the query's
// requested answer count, the least any subplan will be asked for) and na
// (the subplan's full output). Because sort plans are k-constant and rank
// plans grow monotonically in k, agreement at both endpoints decides the
// whole range; disagreement is the paper's "keep both" zone around the
// crossover k*.
func (o *optimizer) dominatesExplained(a, b *memoPlan) (dom, protected bool) {
	if !covers(a.order, b.order) {
		return false, false
	}
	// a's order is at least as strong; what is left is the Pipelined flag:
	// a must be pipelined whenever b is.
	if o.opts.DisablePipelineProtection || a.pipelined || !b.pipelined {
		return costDominates(a, b), false
	}
	// Only b's Pipelined flag saves it — if a also wins on cost, the
	// First-N-Rows protection is what kept b.
	return false, costDominates(a, b)
}

// covers reports whether having the order with id a satisfies a
// requirement of the order with id b: every order covers DC (id 0);
// otherwise the ids must be equal, as the column orders of one
// join-equivalence class and direction are (see intern). Pruning, the merge
// inputs and the final ORDER BY and GROUP BY all ask it.
func covers(a, b orderID) bool { return b == 0 || a == b }

// costDominates reports a at most as expensive as b at both endpoints of
// the achievable k range. A plan that cannot produce the query's k rows (or
// a query without k) has atK == full, which is what Cost's clamp made of
// that endpoint all along, so no case split on k is needed here.
func costDominates(a, b *memoPlan) bool {
	if a.full > b.full+costEps {
		return false
	}
	return !(a.atK > b.atK+costEps)
}

// domNote renders the reason a dominated b, for decision traces.
func (o *optimizer) domNote(a, b *plan.Node) string {
	na := math.Max(a.Card, b.Card)
	k := na
	if o.kmin > 0 && o.kmin < na {
		k = o.kmin
	}
	return fmt.Sprintf("dominated: props %s >= %s; cost %.1f<=%.1f at k=%.0f",
		propsNote(a), propsNote(b), a.Cost(k), b.Cost(k), k)
}

// propsNote is the compact property rendering decision traces use.
func propsNote(n *plan.Node) string {
	s := n.Props.Order.Key()
	if n.Props.Pipelined {
		s += "+pipelined"
	}
	return s
}

// CrossoverK computes k*, the number of requested results at which a
// k-sensitive (rank-join) plan's cost overtakes a blocking plan's constant
// cost (Figure 6). It returns 0 when the rank plan is never cheaper, and
// na+1 when it is cheaper over the entire achievable range [1, na].
func CrossoverK(sortPlan, rankPlan *plan.Node) float64 {
	na := math.Max(rankPlan.Card, 1)
	sortCost := sortPlan.TotalCost()
	if rankPlan.Cost(1) >= sortCost {
		return 0
	}
	if rankPlan.Cost(na) <= sortCost {
		return na + 1
	}
	lo, hi := 1.0, na
	for i := 0; i < 64 && hi-lo > 0.5; i++ {
		mid := (lo + hi) / 2
		if rankPlan.Cost(mid) < sortCost {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

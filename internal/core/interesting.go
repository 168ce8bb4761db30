package core

import (
	"math/bits"
	"sort"
	"strings"

	"rankopt/internal/expr"
)

// interestingOrders reproduces the paper's Table 1 for the query: the
// interesting order expressions the rank-aware optimizer collects, with the
// operation(s) that make each one interesting. Join columns come from
// equality predicates; single score terms and partial sums become
// interesting because rank-joins can consume them; the full ranking
// function is required by the ORDER BY.
func (o *optimizer) interestingOrders() []InterestingOrder {
	reasons := map[string][]string{}
	order := []string{}
	add := func(e, reason string) {
		if _, ok := reasons[e]; !ok {
			order = append(order, e)
		}
		for _, r := range reasons[e] {
			if r == reason {
				return
			}
		}
		reasons[e] = append(reasons[e], reason)
	}

	// Join-predicate columns.
	for _, j := range o.q.Joins {
		add(j.L.String(), "Join")
		add(j.R.String(), "Join")
	}

	if o.rankAware() {
		ranked := o.entry(o.fullMask()).ranked
		// Single score-term columns.
		for _, ti := range ranked {
			add(ti.term.E.String(), "Rank-join")
		}
		// Partial sums over every ranked subset of size >= 2 (subsets other
		// than the full one feed rank-joins; the full one is the ORDER BY).
		m := len(ranked)
		if m >= 2 && m <= 12 {
			for subset := uint64(1); subset < 1<<uint(m); subset++ {
				cnt := bits.OnesCount64(subset)
				if cnt < 2 {
					continue
				}
				var terms []expr.ScoreTerm
				for i := 0; i < m; i++ {
					if subset&(1<<uint(i)) != 0 {
						terms = append(terms, *ranked[i].term)
					}
				}
				e := expr.Sum(terms...).String()
				if cnt == m {
					add(e, "Orderby")
				} else {
					add(e, "Rank-join")
				}
			}
		}
	} else if o.q.OrderBy.Name != "" {
		add(o.q.OrderBy.String(), "Orderby")
	}
	for _, g := range o.q.GroupBy {
		add(g.String(), "GroupBy")
	}

	out := make([]InterestingOrder, 0, len(order))
	// Stable, readable ordering: plain columns first (alphabetical), then
	// sums by term count then alphabetical.
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := strings.Count(order[a], "+"), strings.Count(order[b], "+")
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	for _, e := range order {
		out = append(out, InterestingOrder{Expr: e, Reasons: reasons[e]})
	}
	return out
}

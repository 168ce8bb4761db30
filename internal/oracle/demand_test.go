package oracle

import (
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
)

// TestPropagateKAgreesWithCost: Algorithm Propagate must push down exactly
// the demands the cost model charges. For every plan the corpus enumerates
// (the retained alternatives of every seed, plus every unpruned plan of the
// 2- and 3-way seeds), at full output and at the query's k, each node's
// PropagateK demand must equal the demand its parent's CostFrom passes it
// at the parent's own PropagateK demand, capped at the node's Card as Cost
// caps it.
func TestPropagateKAgreesWithCost(t *testing.T) {
	plans, pairs := 0, 0
	for seed := int64(1); seed <= int64(corpusSize()); seed++ {
		c := Generate(seed)
		q, err := sqlparse.Parse(c.SQL)
		if err != nil {
			t.Fatalf("seed %d: parse %q: %v", seed, c.SQL, err)
		}
		opts := []core.Options{{CollectAllPlans: true}}
		if c.Tables <= 3 {
			opts = append(opts, core.Options{CollectAllPlans: true, KeepAllPlans: true})
		}
		for _, o := range opts {
			res, err := core.Optimize(c.cat, q, o)
			if err != nil {
				t.Fatalf("seed %d: optimize %q: %v", seed, c.SQL, err)
			}
			for _, root := range res.AllPlans {
				plans++
				for _, k := range []float64{root.Card, float64(c.K)} {
					demand := map[*plan.Node]float64{}
					plan.PropagateK(root, k, func(n *plan.Node, nk float64) { demand[n] = nk })
					root.Walk(func(n *plan.Node) {
						n.CostFrom(demand[n], func(i int, ck float64) float64 {
							child := n.Children[i]
							pairs++
							if got, want := demand[child], min(ck, child.Card); got != want {
								t.Errorf("seed %d k=%v: %v under %v: PropagateK demand %v, cost charges %v\nquery: %s\n%s",
									seed, k, child.Op, n.Op, got, want, c.SQL, plan.Explain(root))
							}
							return 0
						})
					})
					if t.Failed() {
						return
					}
				}
			}
		}
	}
	t.Logf("%d plans, %d (node, demand) pairs agree", plans, pairs)
}

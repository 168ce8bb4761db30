package core

import (
	"math"
	"testing"

	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
)

// TestOrderIDDominance checks the id-based order semantics pruning and the
// final assembly share: every order covers DC and nothing else covers a
// stronger order; the column orders of one join-equivalence class share an
// id per direction, and no other property shares it; and a plan dominates
// another only with an order at least as strong and, unless First-N-Rows
// protection is off, pipelined whenever the other is.
func TestOrderIDDominance(t *testing.T) {
	o, err := newOptimizer(churnCatalog(), churnShapes[0].query(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	k1 := o.intern(plan.ColOrder(expr.Col("T1", "key"), false))
	k3 := o.intern(plan.ColOrder(expr.Col("T3", "key"), false))
	k3d := o.intern(plan.ColOrder(expr.Col("T3", "key"), true))
	s1 := o.intern(plan.ColOrder(expr.Col("T1", "score"), false))
	rank := o.intern(plan.RankOrder("T1"))
	dc := o.intern(plan.NoOrder)
	if k1.id != k3.id {
		t.Errorf("T1.key and T3.key are one class: ids %d and %d", k1.id, k3.id)
	}
	if k3.prop.Col != expr.Col("T3", "key") {
		t.Errorf("interning replaced the plan's own column: %s", k3.prop.Key())
	}
	for _, other := range []order{k3d, s1, rank, dc} {
		if other.id == k1.id {
			t.Errorf("%s shares the key class's id %d", other.prop.Key(), k1.id)
		}
	}
	if dc.id != 0 || !covers(k1.id, dc.id) || !covers(rank.id, dc.id) {
		t.Error("every order covers DC")
	}
	if covers(dc.id, k1.id) || covers(k1.id, rank.id) || covers(k1.id, k3d.id) {
		t.Error("weak orders must not cover strong requirements")
	}

	plans := func(ord orderID, pipelined bool) *memoPlan {
		return &memoPlan{full: 10, atK: 1, order: ord, pipelined: pipelined}
	}
	rankPipe, rankBlock, dcPipe := plans(rank.id, true), plans(rank.id, false), plans(dc.id, true)
	if dom, _ := o.dominatesExplained(rankPipe, rankBlock); !dom {
		t.Error("pipelined dominates blocking with the same order")
	}
	if dom, prot := o.dominatesExplained(rankBlock, rankPipe); dom || !prot {
		t.Errorf("blocking cannot dominate pipelined, which the protection keeps: dom=%v protected=%v", dom, prot)
	}
	if dom, _ := o.dominatesExplained(rankPipe, dcPipe); !dom {
		t.Error("ordered dominates DC")
	}
	if dom, _ := o.dominatesExplained(dcPipe, rankPipe); dom {
		t.Error("DC cannot dominate ordered")
	}
	if dom, _ := o.dominatesExplained(plans(k1.id, true), plans(k3.id, true)); !dom {
		t.Error("an order on one class column dominates an equal plan on another")
	}
	o.opts.DisablePipelineProtection = true
	if dom, _ := o.dominatesExplained(rankBlock, rankPipe); !dom {
		t.Error("without protection, cost and order decide")
	}
}

// TestOneColumnOrderPerClass checks that the DP keeps one column order per
// join-equivalence class and direction: on plan-churn's 4-way key chain,
// every retained plan ordered on any table's key carries the one id of the
// key class, so no entry — the full one included — holds near-duplicate
// plans that differ only in which key column they are sorted on.
func TestOneColumnOrderPerClass(t *testing.T) {
	o, err := newOptimizer(churnCatalog(), churnShapes[4].query(t, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	o.runDP()
	type classDir struct {
		class expr.ColRef
		desc  bool
	}
	ids := map[classDir]orderID{}
	fullColPlans := 0
	for mask, e := range o.entries {
		for _, mp := range e.plans {
			ord := mp.n.Props.Order
			if ord.Kind != plan.OrderCol {
				continue
			}
			if mask == o.fullMask() {
				fullColPlans++
			}
			cd := classDir{o.equiv.find(ord.Col), ord.Desc}
			if id, ok := ids[cd]; ok && id != mp.order {
				t.Errorf("entry %s: %s has order id %d, another plan of its class %d", e.label, ord.Key(), mp.order, id)
			}
			ids[cd] = mp.order
		}
	}
	if fullColPlans == 0 {
		t.Fatal("the full entry keeps no column-ordered plan; the test checks nothing")
	}
}

// TestClassOrderServesOrderByAndGroupBy checks the final assembly's order
// checks go through class ids: on plan-churn's indexed 3-way key chain, a
// plan sorted on any key column serves ORDER BY T3.key, ORDER BY T1.key and
// GROUP BY T3.key without a final Sort, at the costs the DP reached when
// each column was its own order (checking the requirement by column, not by
// id, glues a Sort over the class's plans: ORDER BY costs 23 415 then, and
// GROUP BY 10 293). The ORDER BY answers are executed and checked sorted.
func TestClassOrderServesOrderByAndGroupBy(t *testing.T) {
	cat := churnCatalog()
	const chain = "FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key"
	for _, tc := range []struct {
		sql  string
		col  expr.ColRef
		cost float64
	}{
		{"SELECT * " + chain + " ORDER BY T3.key LIMIT 10", expr.Col("T3", "key"), 0.742},
		{"SELECT * " + chain + " ORDER BY T1.key LIMIT 10", expr.Col("T1", "key"), 0.742},
		{"SELECT T3.key, COUNT(*) " + chain + " GROUP BY T3.key", expr.ColRef{}, 4087.152},
	} {
		q, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Optimize(cat, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		kEval := res.Best.Card
		if q.K > 0 {
			kEval = float64(q.K)
		}
		if c := res.Best.Cost(kEval); math.Abs(c-tc.cost) > 5e-4 {
			t.Errorf("%s: best cost %.3f, want %.3f\n%s", tc.sql, c, tc.cost, plan.Explain(res.Best))
		}
		top := res.BestJoin
		if top.Op == plan.OpSortAgg {
			top = top.Children[0]
		}
		if top.Op == plan.OpSort {
			t.Errorf("%s: final Sort over a plan the class order already sorts\n%s", tc.sql, plan.Explain(res.Best))
		}
		if tc.col.Name == "" {
			continue
		}
		op, err := plan.Compile(cat, res.Best)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := op.Schema().Resolve(tc.col.Table, tc.col.Name)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 {
			t.Fatalf("%s: %d rows, want 10", tc.sql, len(rows))
		}
		for i := 1; i < len(rows); i++ {
			if rows[i][pos].AsInt() < rows[i-1][pos].AsInt() {
				t.Errorf("%s: %s not ascending at row %d", tc.sql, tc.col, i)
			}
		}
	}
}

package bench

import (
	"fmt"
	"sort"
	"strings"

	"rankopt/internal/core"
	"rankopt/internal/estimate"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
)

// Fig1 reproduces Figure 1: estimated I/O cost of the sort plan vs the
// rank-join plan for two ranked relations across join selectivities. The
// paper's shape: the sort plan wins at low selectivity (tiny join output,
// cheap sort; the rank-join must dig deep for matches), the rank-join wins
// at high selectivity.
func Fig1() *Table {
	const (
		n = 100000.0
		k = 100.0
	)
	t := &Table{
		Title:   "Figure 1: estimated cost, sort plan vs rank-join plan (n=100k, k=100)",
		Columns: []string{"selectivity", "sort-plan", "rank-join", "winner"},
	}
	for _, s := range []float64{1e-7, 5e-7, 1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2} {
		sortPlan, rankPlan := twoRelPlans(n, s)
		sc := sortPlan.TotalCost()
		rc := rankPlan.Cost(k)
		winner := "rank-join"
		if sc < rc {
			winner = "sort-plan"
		}
		t.AddRow(s, sc, rc, winner)
	}
	return t
}

// Fig6 reproduces Figure 6: the effect of k on the rank-join plan cost
// against the k-independent sort plan, including the crossover point k*.
func Fig6() *Table {
	const (
		n = 10000.0
		s = 0.001
	)
	sortPlan, rankPlan := twoRelPlans(n, s)
	kstar := core.CrossoverK(sortPlan, rankPlan)
	t := &Table{
		Title:   "Figure 6: effect of k on plan costs (n=10k, s=0.001)",
		Note:    fmt.Sprintf("crossover k* = %.0f (paper's instance: 176)", kstar),
		Columns: []string{"k", "sort-plan", "rank-join", "cheaper"},
	}
	for k := 25.0; k <= 400; k += 25 {
		sc := sortPlan.TotalCost()
		rc := rankPlan.Cost(k)
		cheaper := "rank-join"
		if sc < rc {
			cheaper = "sort-plan"
		}
		t.AddRow(k, sc, rc, cheaper)
	}
	return t
}

// fig2Query builds the Figure 2 query: a 3-way join with an optional
// ORDER BY A.c2 (no ranking function).
func fig2Query(orderBy bool) *logical.Query {
	q := &logical.Query{
		Tables: []string{"A", "B", "C"},
		Joins: []logical.JoinPred{
			{L: expr.Col("A", "c1"), R: expr.Col("B", "c1")},
			{L: expr.Col("B", "c2"), R: expr.Col("C", "c2")},
		},
	}
	if orderBy {
		q.OrderBy = expr.Col("A", "c2")
	}
	return q
}

// q2Query builds the paper's Query Q2: joins A.c2=B.c1 and B.c2=C.c2 with
// the ranking function 0.3*A.c1 + 0.3*B.c1 + 0.3*C.c1 and k=5. Note B.c1
// serves both a join and the ranking — the "Join and Rank-join" row of
// Table 1.
func q2Query() *logical.Query {
	return &logical.Query{
		Tables: []string{"A", "B", "C"},
		Joins: []logical.JoinPred{
			{L: expr.Col("A", "c2"), R: expr.Col("B", "c1")},
			{L: expr.Col("B", "c2"), R: expr.Col("C", "c2")},
		},
		Score: expr.Sum(
			expr.ScoreTerm{Weight: 0.3, E: expr.Col("A", "c1")},
			expr.ScoreTerm{Weight: 0.3, E: expr.Col("B", "c1")},
			expr.ScoreTerm{Weight: 0.3, E: expr.Col("C", "c1")},
		),
		K: 5,
	}
}

// memoCounts runs the optimizer and returns per-entry retained plan counts.
func memoCounts(q *logical.Query, opts core.Options) (map[string]int, int, error) {
	cat := abcCatalog(1000)
	res, err := core.Optimize(cat, q, opts)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int{}
	for label, plans := range res.Memo {
		counts[label] = len(plans)
	}
	return counts, res.PlansKept, nil
}

// Fig2 reproduces Figure 2: the number of plans kept in the MEMO structure
// for the 3-way join query without (paper: 12) and with (paper: 15) an
// ORDER BY clause.
func Fig2() (*Table, error) {
	t := &Table{
		Title:   "Figure 2: MEMO plan counts, interesting orders (paper: 12 vs 15)",
		Columns: []string{"entry", "no ORDER BY", "with ORDER BY"},
	}
	plain, totalPlain, err := memoCounts(fig2Query(false), core.Options{})
	if err != nil {
		return nil, err
	}
	ordered, totalOrdered, err := memoCounts(fig2Query(true), core.Options{})
	if err != nil {
		return nil, err
	}
	for _, label := range sortedLabels(plain, ordered) {
		t.AddRow(label, plain[label], ordered[label])
	}
	t.AddRow("TOTAL", totalPlain, totalOrdered)
	return t, nil
}

// Fig3 reproduces Figure 3: the MEMO growth when ranking expressions become
// interesting — the traditional optimizer vs the rank-aware one on Query Q2
// (paper: 12 vs 17).
func Fig3() (*Table, error) {
	t := &Table{
		Title:   "Figure 3: MEMO plan counts on Q2, traditional vs rank-aware (paper: 12 vs 17)",
		Columns: []string{"entry", "traditional", "rank-aware"},
	}
	base, totalBase, err := memoCounts(q2Query(), core.Options{DisableRankAware: true})
	if err != nil {
		return nil, err
	}
	rank, totalRank, err := memoCounts(q2Query(), core.Options{})
	if err != nil {
		return nil, err
	}
	for _, label := range sortedLabels(base, rank) {
		t.AddRow(label, base[label], rank[label])
	}
	t.AddRow("TOTAL", totalBase, totalRank)
	return t, nil
}

func sortedLabels(ms ...map[string]int) []string {
	set := map[string]bool{}
	for _, m := range ms {
		for k := range m {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if strings.Count(out[i], ",") != strings.Count(out[j], ",") {
			return strings.Count(out[i], ",") < strings.Count(out[j], ",")
		}
		return out[i] < out[j]
	})
	return out
}

// Table1 reproduces Table 1: the interesting order expressions the
// rank-aware optimizer collects for Query Q2 and why.
func Table1() (*Table, error) {
	cat := abcCatalog(1000)
	orders, err := core.InterestingOrders(cat, q2Query(), core.Options{})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 1: interesting order expressions in Query Q2",
		Columns: []string{"interesting order expression", "reason"},
	}
	for _, io := range orders {
		t.AddRow(io.Expr, strings.Join(io.Reasons, " and "))
	}
	return t, nil
}

// Fig4 reproduces Figure 4: how the requested k propagates down a pipeline
// of rank-join operators — each operator's input depth becomes the k of its
// child (Algorithm Propagate). The paper's instance propagated k=100 into
// 580 and then 783 on its video data; the shape (k grows downward under
// sparse joins) is the claim.
func Fig4() (*Table, error) {
	const (
		n    = 100000.0
		s    = 0.0002
		k    = 100.0
		slab = 1 / n
	)
	root, err := estimate.LeftDeep(3, n, slab, s)
	if err != nil {
		return nil, err
	}
	if err := estimate.Propagate(root, k, estimate.ModeTopK); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Figure 4: k-propagation in a rank-join pipeline (3 inputs, left-deep, s=0.0002)",
		Note:    "each operator's input depth is the k required from its child (paper instance: 100 -> 580 -> 783)",
		Columns: []string{"operator", "required k", "depth into left", "depth into right"},
	}
	t.AddRow("top rank-join", root.K, root.DL, root.DR)
	t.AddRow("child rank-join", root.Left.K, root.Left.DL, root.Left.DR)
	return t, nil
}

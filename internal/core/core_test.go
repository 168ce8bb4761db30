package core

import (
	"math"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/workload"
)

// rankedQuery builds a chain-join top-k query over m generated tables:
// T1.key = T2.key = ... with score = sum of per-table scores.
func rankedQuery(m int, k int) *logical.Query {
	q := &logical.Query{K: k}
	for i := 1; i <= m; i++ {
		name := tname(i)
		q.Tables = append(q.Tables, name)
		q.Score.Terms = append(q.Score.Terms, expr.ScoreTerm{Weight: 1, E: expr.Col(name, "score")})
		if i > 1 {
			q.Joins = append(q.Joins, logical.JoinPred{
				L: expr.Col(tname(i-1), "key"), R: expr.Col(name, "key"),
			})
		}
	}
	return q
}

func tname(i int) string {
	return "T" + string(rune('0'+i))
}

// referenceTopK computes the expected descending combined-score sequence by
// running a hash-join + sort reference plan.
func referenceTopK(t *testing.T, cat *catalog.Catalog, q *logical.Query, k int) []float64 {
	t.Helper()
	var cur exec.Operator
	for i, name := range q.Tables {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		scan := exec.NewSeqScan(tab.Rel)
		if i == 0 {
			cur = scan
			continue
		}
		j := q.Joins[i-1]
		cur = exec.NewHashJoin(cur, scan, j.L, j.R, nil)
	}
	sorted := exec.NewSortByScore(cur, q.Score)
	tuples, err := exec.CollectK(sorted, k)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := q.Score.Bind(sorted.Schema())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(tuples))
	for i, tup := range tuples {
		v, err := ev(tup)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v.AsFloat()
	}
	return out
}

// runBest compiles and executes the optimizer's best plan, returning the
// combined score column (the Rank operator's second-to-last output column).
func runBest(t *testing.T, cat *catalog.Catalog, res *Result) []float64 {
	t.Helper()
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, plan.Explain(res.Best))
	}
	tuples, err := exec.Collect(op)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, plan.Explain(res.Best))
	}
	out := make([]float64, len(tuples))
	for i, tup := range tuples {
		out[i] = tup[len(tup)-2].AsFloat()
	}
	return out
}

func TestOptimizeTwoTableTopK(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 1500, Selectivity: 0.02, Seed: 201})
	q := rankedQuery(2, 10)
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := runBest(t, cat, res)
	want := referenceTopK(t, cat, q, 10)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d: %v, want %v\n%s", i, got[i], want[i], plan.Explain(res.Best))
		}
	}
}

func TestOptimizeThreeTableTopK(t *testing.T) {
	cat, _ := workload.RankedSet(3, workload.RankedConfig{N: 400, Selectivity: 0.05, Seed: 202})
	q := rankedQuery(3, 8)
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := runBest(t, cat, res)
	want := referenceTopK(t, cat, q, 8)
	for i := range want {
		if i >= len(got) || math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d mismatch\n%s", i, plan.Explain(res.Best))
		}
	}
}

func TestRankAwarePicksHRJNForSmallK(t *testing.T) {
	// High selectivity + tiny k: rank-join should win (Figure 1's right side).
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 20000, Selectivity: 0.05, Seed: 203})
	q := rankedQuery(2, 5)
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CountOps(plan.OpHRJN)+res.Best.CountOps(plan.OpNRJN) == 0 {
		t.Errorf("expected a rank-join plan for small k, got:\n%s", plan.Explain(res.Best))
	}
}

func TestBaselinePicksSortPlan(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 1200, Selectivity: 0.02, Seed: 204})
	q := rankedQuery(2, 5)
	res, err := Optimize(cat, q, Options{DisableRankAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CountOps(plan.OpHRJN)+res.Best.CountOps(plan.OpNRJN) != 0 {
		t.Error("baseline optimizer must not emit rank-joins")
	}
	if res.Best.CountOps(plan.OpSort) == 0 {
		t.Errorf("baseline ranking plan needs a sort enforcer:\n%s", plan.Explain(res.Best))
	}
	// And it still answers correctly.
	got := runBest(t, cat, res)
	want := referenceTopK(t, cat, q, 5)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatal("baseline plan wrong")
		}
	}
}

func TestRankAwareEnlargesPlanSpace(t *testing.T) {
	// The Figure 3 effect: rank-aware enumeration retains more plans.
	cat, _ := workload.RankedSet(3, workload.RankedConfig{N: 500, Selectivity: 0.05, Seed: 205})
	q := rankedQuery(3, 5)
	on, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Optimize(cat, q, Options{DisableRankAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.PlansKept <= off.PlansKept {
		t.Errorf("rank-aware kept %d plans, baseline %d — expected growth",
			on.PlansKept, off.PlansKept)
	}
	if on.PlansGenerated <= off.PlansGenerated {
		t.Error("rank-aware should generate more candidates")
	}
	// The chain joins on a single key column, so transitivity implies
	// T1.key = T3.key and the T1,T3 entry legitimately exists.
	for _, label := range []string{"T1", "T2", "T3", "T1,T2", "T1,T3", "T2,T3", "T1,T2,T3"} {
		if len(on.Memo[label]) == 0 {
			t.Errorf("missing MEMO entry %s", label)
		}
	}
}

func TestInterestingOrdersTable1(t *testing.T) {
	// The paper's Q2 shape: 3 tables, each contributing a 0.3-weighted term.
	cat, _ := workload.RankedSet(3, workload.RankedConfig{N: 100, Selectivity: 0.1, Seed: 206})
	q := rankedQuery(3, 5)
	for i := range q.Score.Terms {
		q.Score.Terms[i].Weight = 0.3
	}
	orders, err := InterestingOrders(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	byExpr := map[string][]string{}
	for _, io := range orders {
		byExpr[io.Expr] = io.Reasons
	}
	// Join columns.
	for _, e := range []string{"T1.key", "T2.key", "T3.key"} {
		if !hasReason(byExpr[e], "Join") {
			t.Errorf("%s should be interesting for Join: %v", e, byExpr[e])
		}
	}
	// Single rank terms.
	for _, e := range []string{"T1.score", "T2.score", "T3.score"} {
		if !hasReason(byExpr[e], "Rank-join") {
			t.Errorf("%s should be interesting for Rank-join: %v", e, byExpr[e])
		}
	}
	// All pairwise sums (including the unjoined T1,T3 pair, as in Table 1).
	for _, e := range []string{
		"0.3*T1.score + 0.3*T2.score",
		"0.3*T2.score + 0.3*T3.score",
		"0.3*T1.score + 0.3*T3.score",
	} {
		if !hasReason(byExpr[e], "Rank-join") {
			t.Errorf("%s should be interesting for Rank-join: %v", e, byExpr[e])
		}
	}
	// Full sum is the ORDER BY.
	full := "0.3*T1.score + 0.3*T2.score + 0.3*T3.score"
	if !hasReason(byExpr[full], "Orderby") {
		t.Errorf("%s should be interesting for Orderby: %v", full, byExpr[full])
	}
	// Paper count for Q2: 6 columns + 3 pairs + 1 full = 10 rows.
	if len(orders) != 10 {
		t.Errorf("Table 1 rows = %d, want 10", len(orders))
	}
}

func hasReason(rs []string, want string) bool {
	for _, r := range rs {
		if r == want {
			return true
		}
	}
	return false
}

func TestPipelineProtection(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 2000, Selectivity: 0.05, Seed: 207})
	q := rankedQuery(2, 5)
	with, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Optimize(cat, q, Options{DisablePipelineProtection: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.PlansKept > with.PlansKept {
		t.Errorf("dropping pipeline protection cannot retain more plans: %d > %d",
			without.PlansKept, with.PlansKept)
	}
}

func TestAblationSwitchesStillCorrect(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 800, Selectivity: 0.05, Seed: 208})
	q := rankedQuery(2, 6)
	want := referenceTopK(t, cat, q, 6)
	for name, opts := range map[string]Options{
		"noHRJN":     {DisableHRJN: true},
		"noNRJN":     {DisableNRJN: true},
		"noEnforced": {DisableEnforcedRankInputs: true},
		"noPipe":     {DisablePipelineProtection: true},
	} {
		res, err := Optimize(cat, q, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := runBest(t, cat, res)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("%s: wrong results\n%s", name, plan.Explain(res.Best))
			}
		}
	}
}

func TestNonRankingOrderByQuery(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 300, Selectivity: 0.1, Seed: 209})
	q := &logical.Query{
		Tables: []string{"T1", "T2"},
		Joins: []logical.JoinPred{
			{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")},
		},
		OrderBy:   expr.Col("T1", "score"),
		OrderDesc: true,
		K:         20,
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 20 {
		t.Fatalf("limit not applied: %d", len(tuples))
	}
	prev := math.Inf(1)
	for _, tup := range tuples {
		s := tup[2].AsFloat()
		if s > prev+1e-9 {
			t.Fatal("ORDER BY violated")
		}
		prev = s
	}
}

func TestSelectProjectionAndFilters(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 500, Selectivity: 0.05, Seed: 210})
	q := rankedQuery(2, 5)
	q.Filters = []expr.Expr{
		expr.Bin(expr.OpGt, expr.Col("T1", "score"), expr.FloatLit(0.1)),
	}
	q.Select = []logical.SelectItem{
		{E: expr.Col("T1", "id"), As: "x"},
		{E: expr.Col("", "rank"), As: "rank"},
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatalf("%v\n%s", err, plan.Explain(res.Best))
	}
	tuples, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 5 {
		t.Fatalf("got %d rows", len(tuples))
	}
	if op.Schema().Len() != 2 || op.Schema().Column(0).Name != "x" {
		t.Fatalf("projected schema = %s", op.Schema())
	}
	for i, tup := range tuples {
		if tup[1].AsInt() != int64(i+1) {
			t.Fatal("rank column must count from 1")
		}
	}
}

func TestSingleTableRankingQuery(t *testing.T) {
	cat, _ := workload.RankedSet(1, workload.RankedConfig{N: 1000, Selectivity: 0.1, Seed: 211})
	q := &logical.Query{
		Tables: []string{"T1"},
		Score:  expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col("T1", "score")}),
		K:      3,
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := runBest(t, cat, res)
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	if got[0] < got[1] || got[1] < got[2] {
		t.Fatal("single-table ranking out of order")
	}
	// Should use the descending score index, not a sort.
	if res.Best.CountOps(plan.OpSort) != 0 {
		t.Errorf("expected index-backed ranking:\n%s", plan.Explain(res.Best))
	}
}

func TestCrossoverK(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 10000, Selectivity: 0.01, Seed: 212})
	q := rankedQuery(2, 10)
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Find one rank plan and one sort-finishable plan among root plans.
	var rank, sortp *plan.Node
	for _, p := range res.Memo["T1,T2"] {
		if p.Op.IsRankJoin() && rank == nil {
			rank = p
		}
		if !p.Op.IsRankJoin() && sortp == nil {
			sortp = p
		}
	}
	if rank == nil || sortp == nil {
		t.Skip("memo lacks one of the plan shapes")
	}
	// Wrap the non-rank plan with the final sort (as finish() would).
	o := &optimizer{params: rank.P}
	sorted := o.sortWrap(sortp, sortKeysByScore(q.Score), plan.RankOrder("T1", "T2"))
	kstar := CrossoverK(sorted, rank)
	if kstar <= 0 {
		t.Skip("rank plan never cheaper under these parameters")
	}
	// At k below k*, the rank plan must be cheaper; above, the sort plan.
	if kstar > 1 && kstar <= rank.Card {
		if rank.Cost(kstar/2) >= sorted.TotalCost() {
			t.Errorf("below k* the rank plan should win")
		}
		if kstar*2 <= rank.Card && rank.Cost(kstar*2) <= sorted.TotalCost() {
			t.Errorf("above k* the sort plan should win")
		}
	}
}

func TestOptimizeValidatesQuery(t *testing.T) {
	cat, _ := workload.RankedSet(1, workload.RankedConfig{N: 10, Selectivity: 0.5, Seed: 1})
	bad := &logical.Query{} // no tables
	if _, err := Optimize(cat, bad, Options{}); err == nil {
		t.Error("invalid query must be rejected")
	}
	missing := &logical.Query{Tables: []string{"ZZ"}}
	if _, err := Optimize(cat, missing, Options{}); err == nil {
		t.Error("unknown table must be rejected")
	}
}

func TestExplainMentionsRankProperty(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 3000, Selectivity: 0.05, Seed: 213})
	q := rankedQuery(2, 5)
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain(res.Best)
	if !strings.Contains(out, "rank:T1,T2") {
		t.Errorf("explain should surface the rank property:\n%s", out)
	}
}

func TestGroupedQueryEndToEnd(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 600, Selectivity: 0.05, Seed: 214})
	q := &logical.Query{
		Tables:  []string{"T1", "T2"},
		Joins:   []logical.JoinPred{{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")}},
		GroupBy: []expr.ColRef{expr.Col("T1", "key")},
		Aggs: []logical.AggItem{
			{Func: "COUNT", As: "cnt"},
			{Func: "SUM", Arg: expr.Col("T2", "score"), As: "total"},
		},
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CountOps(plan.OpHashAgg)+res.Best.CountOps(plan.OpSortAgg) != 1 {
		t.Fatalf("grouped plan lacks aggregation:\n%s", plan.Explain(res.Best))
	}
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: brute-force per-key count and sum over the join.
	t1, _ := cat.Table("T1")
	t2, _ := cat.Table("T2")
	cnt := map[int64]int64{}
	sum := map[int64]float64{}
	for _, a := range t1.Rel.Tuples() {
		for _, b := range t2.Rel.Tuples() {
			if a[1].Equal(b[1]) {
				k := a[1].AsInt()
				cnt[k]++
				sum[k] += b[2].AsFloat()
			}
		}
	}
	if len(got) != len(cnt) {
		t.Fatalf("groups = %d, want %d", len(got), len(cnt))
	}
	for _, row := range got {
		k := row[0].AsInt()
		if row[1].AsInt() != cnt[k] {
			t.Fatalf("key %d: count %d, want %d", k, row[1].AsInt(), cnt[k])
		}
		if math.Abs(row[2].AsFloat()-sum[k]) > 1e-6 {
			t.Fatalf("key %d: sum %v, want %v", k, row[2].AsFloat(), sum[k])
		}
	}
	// Group-by column is an interesting order.
	orders, err := InterestingOrders(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, io := range orders {
		if io.Expr == "T1.key" && hasReason(io.Reasons, "GroupBy") {
			found = true
		}
	}
	if !found {
		t.Error("T1.key should be interesting for GroupBy")
	}
}

func TestGroupedQueryPrefersSortedAggOnIndexedColumn(t *testing.T) {
	// Group on an indexed key with a tiny k: streaming over the index order
	// avoids hashing the whole join.
	cat, _ := workload.RankedSet(1, workload.RankedConfig{N: 20000, Selectivity: 0.001, Seed: 215})
	q := &logical.Query{
		Tables:  []string{"T1"},
		GroupBy: []expr.ColRef{expr.Col("T1", "key")},
		Aggs:    []logical.AggItem{{Func: "MAX", Arg: expr.Col("T1", "score"), As: "m"}},
		K:       3,
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CountOps(plan.OpSortAgg) != 1 {
		t.Errorf("expected a streaming sorted aggregate:\n%s", plan.Explain(res.Best))
	}
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("limit not applied to groups: %d", len(got))
	}
}

// The principle-of-optimality check: pruning must never discard the plan an
// exhaustive (no-pruning) search would choose. Costs are compared, not plan
// shapes — ties between equal-cost plans are fine.
func TestPruningPreservesOptimality(t *testing.T) {
	for _, seed := range []int64{301, 302, 303} {
		for _, sel := range []float64{0.01, 0.1} {
			cat, _ := workload.RankedSet(3, workload.RankedConfig{N: 300, Selectivity: sel, Seed: seed})
			for _, k := range []int{1, 5, 50} {
				q := rankedQuery(3, k)
				pruned, err := Optimize(cat, q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				all, err := Optimize(cat, q, Options{KeepAllPlans: true})
				if err != nil {
					t.Fatal(err)
				}
				if all.PlansKept <= pruned.PlansKept {
					t.Fatalf("exhaustive search kept %d <= pruned %d", all.PlansKept, pruned.PlansKept)
				}
				kEval := float64(k)
				pc := pruned.Best.Cost(kEval)
				ac := all.Best.Cost(kEval)
				if pc > ac*(1+1e-9) {
					t.Errorf("seed=%d sel=%v k=%d: pruning lost the optimum: %.2f vs %.2f",
						seed, sel, k, pc, ac)
				}
			}
		}
	}
}

func TestUseTopKSortOption(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 1000, Selectivity: 0.02, Seed: 216})
	q := rankedQuery(2, 7)
	res, err := Optimize(cat, q, Options{DisableRankAware: true, UseTopKSort: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CountOps(plan.OpTopK) != 1 {
		t.Fatalf("expected a TopKSort enforcer:\n%s", plan.Explain(res.Best))
	}
	if res.Best.CountOps(plan.OpSort) != 0 {
		t.Error("TopKSort should replace the full sort enforcer")
	}
	got := runBest(t, cat, res)
	want := referenceTopK(t, cat, q, 7)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d: %v, want %v", i, got[i], want[i])
		}
	}
	// And it must be cheaper than the full-sort plan.
	full, err := Optimize(cat, q, Options{DisableRankAware: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Cost(7) >= full.Best.Cost(7) {
		t.Errorf("top-k sort plan (%v) should undercut the full sort plan (%v)",
			res.Best.Cost(7), full.Best.Cost(7))
	}
}

func TestTransitiveJoinClosure(t *testing.T) {
	// Chain on one key column: the closure derives T1.key = T3.key, letting
	// the optimizer consider joining the chain's endpoints first, and the
	// reduced predicate set counts the single equivalence class once.
	eq := newEquivClasses([]logical.JoinPred{
		{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")},
		{L: expr.Col("T2", "key"), R: expr.Col("T3", "key")},
	})
	closure := eq.closure([]logical.JoinPred{
		{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")},
		{L: expr.Col("T2", "key"), R: expr.Col("T3", "key")},
	})
	if len(closure) != 3 {
		t.Fatalf("closure has %d predicates, want 3", len(closure))
	}
	if !eq.sameClass(expr.Col("T1", "key"), expr.Col("T3", "key")) {
		t.Error("T1.key and T3.key must share a class")
	}
	if eq.sameClass(expr.Col("T1", "key"), expr.Col("T1", "score")) {
		t.Error("unjoined columns have no class")
	}
	// Reduction keeps exactly one predicate for the single class.
	reduced := eq.reduceByClass(closure)
	if len(reduced) != 1 {
		t.Fatalf("reduced to %d predicates, want 1", len(reduced))
	}

	// Distinct classes stay distinct: Q2-style chain on different columns.
	eq2 := newEquivClasses([]logical.JoinPred{
		{L: expr.Col("A", "c2"), R: expr.Col("B", "c1")},
		{L: expr.Col("B", "c2"), R: expr.Col("C", "c2")},
	})
	if eq2.sameClass(expr.Col("A", "c2"), expr.Col("C", "c2")) {
		t.Error("different join columns must not merge")
	}
	closure2 := eq2.closure([]logical.JoinPred{
		{L: expr.Col("A", "c2"), R: expr.Col("B", "c1")},
		{L: expr.Col("B", "c2"), R: expr.Col("C", "c2")},
	})
	if len(closure2) != 2 {
		t.Fatalf("no transitive predicates expected, got %d", len(closure2))
	}
}

func TestTransitivityImprovesOrEqualsPlan(t *testing.T) {
	// With the endpoint join available, the optimizer can never do worse.
	cat, _ := workload.RankedSet(3, workload.RankedConfig{N: 800, Selectivity: 0.03, Seed: 218})
	q := rankedQuery(3, 6)
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := runBest(t, cat, res)
	want := referenceTopK(t, cat, q, 6)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("transitive plan wrong at rank %d\n%s", i, plan.Explain(res.Best))
		}
	}
	if len(res.Memo["T1,T3"]) == 0 {
		t.Error("closure should open the T1,T3 subplan space")
	}
}

func TestSargableFilterUsesRangeScan(t *testing.T) {
	// A highly selective equality filter on the indexed key column should
	// pick the index range scan over a full scan + filter.
	cat, _ := workload.RankedSet(1, workload.RankedConfig{N: 50000, Selectivity: 0.0005, Seed: 219})
	q := &logical.Query{
		Tables: []string{"T1"},
		Filters: []expr.Expr{
			expr.Bin(expr.OpEq, expr.Col("T1", "key"), expr.IntLit(7)),
		},
		Score: expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col("T1", "score")}),
		K:     3,
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CountOps(plan.OpIndexRange) == 0 {
		t.Errorf("expected an index range scan:\n%s", plan.Explain(res.Best))
	}
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Verify against brute force.
	tab, _ := cat.Table("T1")
	var ref []float64
	for _, tup := range tab.Rel.Tuples() {
		if tup[1].AsInt() == 7 {
			ref = append(ref, tup[2].AsFloat())
		}
	}
	for i := 1; i < len(ref); i++ {
		for j := i; j > 0 && ref[j] > ref[j-1]; j-- {
			ref[j], ref[j-1] = ref[j-1], ref[j]
		}
	}
	if len(ref) > 3 {
		ref = ref[:3]
	}
	if len(got) != len(ref) {
		t.Fatalf("rows = %d, want %d", len(got), len(ref))
	}
	for i, tup := range got {
		if math.Abs(tup[len(tup)-2].AsFloat()-ref[i]) > 1e-9 {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

func TestStrictInequalityRangeScanCorrect(t *testing.T) {
	// Strict bounds rely on the residual filter: col > c scans [c, +inf]
	// but must not emit the boundary rows.
	cat, _ := workload.RankedSet(1, workload.RankedConfig{N: 5000, Selectivity: 0.01, Seed: 220})
	q := &logical.Query{
		Tables: []string{"T1"},
		Filters: []expr.Expr{
			expr.Bin(expr.OpGt, expr.Col("T1", "key"), expr.IntLit(95)),
		},
		Score: expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col("T1", "score")}),
		K:     100,
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range got {
		if tup[1].AsInt() <= 95 {
			t.Fatalf("boundary leak: key %d", tup[1].AsInt())
		}
	}
	tab, _ := cat.Table("T1")
	want := 0
	for _, tup := range tab.Rel.Tuples() {
		if tup[1].AsInt() > 95 {
			want++
		}
	}
	if want > 100 {
		want = 100
	}
	if len(got) != want {
		t.Fatalf("rows = %d, want %d", len(got), want)
	}
}

func TestPartiallyRankedQueryQ1Shape(t *testing.T) {
	// Q1's shape: three tables joined, but only T1 and T2 contribute score
	// terms — T3 participates in the join without ranking.
	cat, _ := workload.RankedSet(3, workload.RankedConfig{N: 500, Selectivity: 0.05, Seed: 221})
	q := &logical.Query{
		Tables: []string{"T1", "T2", "T3"},
		Joins: []logical.JoinPred{
			{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")},
			{L: expr.Col("T2", "key"), R: expr.Col("T3", "key")},
		},
		Score: expr.Sum(
			expr.ScoreTerm{Weight: 0.3, E: expr.Col("T1", "score")},
			expr.ScoreTerm{Weight: 0.7, E: expr.Col("T2", "score")},
		),
		K: 8,
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := runBest(t, cat, res)
	want := referenceTopK(t, cat, q, 8)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d: %v, want %v\n%s", i, got[i], want[i], plan.Explain(res.Best))
		}
	}
	// The rank property at the root covers only the ranked tables.
	if !strings.Contains(plan.Explain(res.Best), "rank:T1,T2") {
		t.Errorf("root order should rank T1,T2 only:\n%s", plan.Explain(res.Best))
	}
}

func TestRankingWithoutLimitReturnsFullOrder(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 200, Selectivity: 0.1, Seed: 222})
	q := rankedQuery(2, 0) // K = 0: full ranking
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := runBest(t, cat, res)
	want := referenceTopK(t, cat, q, 1<<30)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d (full result)", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("rank %d mismatch", i)
		}
	}
}

func TestTopKSelectionPlanGenerated(t *testing.T) {
	// The multimedia query class: every table ranked, joined on the unique
	// object id. The optimizer must offer (and correctly execute) a TA plan.
	cat, names := workload.Corpus(workload.CorpusConfig{Objects: 800, Features: 3, Seed: 223})
	q := &logical.Query{K: 6}
	weights := []float64{0.5, 0.3, 0.2}
	for i, f := range names {
		q.Tables = append(q.Tables, f)
		q.Score.Terms = append(q.Score.Terms,
			expr.ScoreTerm{Weight: weights[i], E: expr.Col(f, "score")})
		if i > 0 {
			q.Joins = append(q.Joins, logical.JoinPred{
				L: expr.Col(names[i-1], "id"), R: expr.Col(f, "id"),
			})
		}
	}
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The TA plan may or may not win on cost, but the detected alternative
	// must exist and execute correctly when forced. Build it directly.
	o, err := newOptimizer(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o.runDP()
	ta := o.topKSelectionPlan()
	if ta == nil {
		t.Fatal("top-k selection plan should be detected")
	}
	op, err := plan.Compile(cat, ta)
	if err != nil {
		t.Fatal(err)
	}
	// The TA operator is pipelined; the query's LIMIT sits in the plan tail,
	// so the bare node is read to k.
	got, err := exec.CollectK(op, ta.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("TA plan rows = %d", len(got))
	}
	// Compare score sequence with the optimizer's chosen plan.
	want := runBest(t, cat, res)
	ev, err := q.Score.Bind(op.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range got {
		v, err := ev(row)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v.AsFloat()-want[i]) > 1e-9 {
			t.Fatalf("rank %d: TA %v vs chosen plan %v", i, v.AsFloat(), want[i])
		}
	}
	// And with the switch off, detection is suppressed.
	o.opts.DisableRankAggregate = true
	if o.topKSelectionPlan() != nil {
		t.Error("DisableRankAggregate should suppress the TA plan")
	}
}

func TestTopKSelectionPlanRejectsNonSelections(t *testing.T) {
	// Joins on a NON-unique key: TA semantics break, detection must refuse.
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 300, Selectivity: 0.1, Seed: 224})
	q := rankedQuery(2, 5)
	res, err := Optimize(cat, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.CountOps(plan.OpRankAgg) != 0 {
		t.Error("non-unique join keys must not yield a TA plan")
	}
	// Filters also disqualify.
	cat2, names := workload.Corpus(workload.CorpusConfig{Objects: 100, Features: 2, Seed: 225})
	q2 := &logical.Query{K: 3,
		Tables: names,
		Joins:  []logical.JoinPred{{L: expr.Col(names[0], "id"), R: expr.Col(names[1], "id")}},
		Score: expr.Sum(
			expr.ScoreTerm{Weight: 1, E: expr.Col(names[0], "score")},
			expr.ScoreTerm{Weight: 1, E: expr.Col(names[1], "score")},
		),
		Filters: []expr.Expr{expr.Bin(expr.OpGt, expr.Col(names[0], "score"), expr.FloatLit(0.1))},
	}
	res2, err := Optimize(cat2, q2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Best.CountOps(plan.OpRankAgg) != 0 {
		t.Error("filtered queries must not yield a TA plan")
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/workload"
)

// The greedy fast path must produce the same top-k answer as the reference
// plan (and therefore as the DP) on ranked chain joins of every width.
func TestGreedyMatchesReference(t *testing.T) {
	// Rows shrink with join width so the reference plan's full materialized
	// join stays small (N^m·s^(m-1) tuples).
	rows := map[int]int{2: 1500, 3: 400, 4: 120}
	for _, m := range []int{2, 3, 4} {
		cat, _ := workload.RankedSet(m, workload.RankedConfig{N: rows[m], Selectivity: 0.05, Seed: 301})
		q := rankedQuery(m, 10)
		res, err := Optimize(cat, q, Options{Planner: PlannerGreedy})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		got := runBest(t, cat, res)
		want := referenceTopK(t, cat, q, 10)
		if len(got) != len(want) {
			t.Fatalf("m=%d: got %d results, want %d\n%s", m, len(got), len(want), plan.Explain(res.Best))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("m=%d rank %d: %v, want %v\n%s", m, i, got[i], want[i], plan.Explain(res.Best))
			}
		}
	}
}

// TestGreedyPlanQualityAcrossSelectivity is the greedy planner's quality
// gate on the 4-way ranked chain join, swept across three selectivity
// decades: greedy must choose a plan whose k-cost is within 1.2x of the DP's
// under the shared cost model, and execute the DP's top-k on a 120-row
// catalog of the same shape. The three points tie at 3 000 rows since greedy
// enumerates its path with the DP's enumerator. Every check is a count or a
// cost, never a clock.
func TestGreedyPlanQualityAcrossSelectivity(t *testing.T) {
	const k = 10
	q := rankedQuery(4, k)
	for i, sel := range []float64{0.001, 0.01, 0.05} {
		// Each point draws its own data, so one generator quirk cannot skew
		// the whole sweep.
		seed := 17 + int64(i)*1009
		cat, _ := workload.RankedSet(4, workload.RankedConfig{N: 3000, Selectivity: sel, Seed: seed})
		dp, err := Optimize(cat, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Optimize(cat, q, Options{Planner: PlannerGreedy})
		if err != nil {
			t.Fatal(err)
		}
		ratio := g.Best.Cost(k) / dp.Best.Cost(k)
		t.Logf("sel=%g: greedy/DP cost ratio %.2f", sel, ratio)
		if ratio > 1.2 {
			t.Errorf("sel=%g: greedy plan costs %.2fx the DP's, bound 1.2\ngreedy:\n%s\ndp:\n%s",
				sel, ratio, plan.Explain(g.Best), plan.Explain(dp.Best))
		}

		ecat, _ := workload.RankedSet(4, workload.RankedConfig{N: 120, Selectivity: sel, Seed: seed + 1})
		dpE, err := Optimize(ecat, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gE, err := Optimize(ecat, q, Options{Planner: PlannerGreedy})
		if err != nil {
			t.Fatal(err)
		}
		want, got := runBest(t, ecat, dpE), runBest(t, ecat, gE)
		if len(got) != len(want) {
			t.Fatalf("sel=%g: greedy returned %d rows, DP %d", sel, len(got), len(want))
		}
		for r := range want {
			if math.Abs(got[r]-want[r]) > 1e-9*math.Max(math.Abs(want[r]), 1) {
				t.Fatalf("sel=%g rank %d: greedy %v, DP %v", sel, r, got[r], want[r])
			}
		}
	}
}

// Greedy must also handle non-ranking ORDER BY queries and filtered ranked
// queries — the paths that bypass rank-join construction entirely.
func TestGreedyNonRankingAndFiltered(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 800, Selectivity: 0.05, Seed: 302})

	// Non-ranking: plain ORDER BY id DESC LIMIT.
	q := &logical.Query{
		Tables:    []string{"T1", "T2"},
		Joins:     []logical.JoinPred{{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")}},
		OrderBy:   expr.Col("T1", "id"),
		OrderDesc: true,
		K:         5,
	}
	res, err := Optimize(cat, q, Options{Planner: PlannerGreedy})
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, plan.Explain(res.Best))
	}
	tuples, err := exec.Collect(op)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, plan.Explain(res.Best))
	}
	if len(tuples) != 5 {
		t.Fatalf("got %d tuples, want 5", len(tuples))
	}

	// Ranked with a filter constant: the filtered table should be planned
	// with its filter applied, and results must match the DP.
	qf := rankedQuery(2, 8)
	qf.Filters = []expr.Expr{expr.Bin(expr.OpLt, expr.Col("T1", "id"), expr.IntLit(400))}
	gres, err := Optimize(cat, qf, Options{Planner: PlannerGreedy})
	if err != nil {
		t.Fatal(err)
	}
	dres, err := Optimize(cat, qf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := runBest(t, cat, gres)
	d := runBest(t, cat, dres)
	if len(g) != len(d) {
		t.Fatalf("greedy %d results, dp %d", len(g), len(d))
	}
	for i := range d {
		if math.Abs(g[i]-d[i]) > 1e-9 {
			t.Fatalf("rank %d: greedy %v, dp %v\n%s", i, g[i], d[i], plan.Explain(gres.Best))
		}
	}
}

// Greedy's MEMO is its path: every table's access paths and one entry per
// longer prefix, each prefix one table larger than the one before. On a
// 4-way chain that is 4 + 3 entries where the DP holds every connected
// subset.
func TestGreedyMemoIsPathPrefixes(t *testing.T) {
	cat, _ := workload.RankedSet(4, workload.RankedConfig{N: 300, Selectivity: 0.05, Seed: 305})
	res, err := Optimize(cat, rankedQuery(4, 10), Options{Planner: PlannerGreedy})
	if err != nil {
		t.Fatal(err)
	}
	bySize := map[int][]string{}
	for label := range res.Memo {
		n := len(strings.Split(label, ","))
		bySize[n] = append(bySize[n], label)
	}
	if len(bySize[1]) != 4 || len(res.Memo) != 7 {
		t.Fatalf("memo %v: want 4 single-table entries and 3 prefixes", bySize)
	}
	for n := 2; n <= 4; n++ {
		if len(bySize[n]) != 1 {
			t.Fatalf("memo %v: want one prefix of %d tables", bySize, n)
		}
	}
	for n := 3; n <= 4; n++ {
		cur := strings.Split(bySize[n][0], ",")
		for _, name := range strings.Split(bySize[n-1][0], ",") {
			if !slices.Contains(cur, name) {
				t.Fatalf("prefix %v does not extend %v", cur, bySize[n-1])
			}
		}
	}
}

// A single-table query and a grouped join plan greedily and return the DP's
// answers.
func TestGreedySingleTableAndGrouped(t *testing.T) {
	cat1, _ := workload.RankedSet(1, workload.RankedConfig{N: 200, Selectivity: 0.1, Seed: 303})
	cat2, _ := workload.RankedSet(2, workload.RankedConfig{N: 300, Selectivity: 0.1, Seed: 304})
	grouped := &logical.Query{
		Tables:  []string{"T1", "T2"},
		Joins:   []logical.JoinPred{{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")}},
		GroupBy: []expr.ColRef{expr.Col("T1", "key")},
		Aggs:    []logical.AggItem{{Func: "COUNT", As: "n"}},
	}
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		q    *logical.Query
	}{
		{"single-table", cat1, rankedQuery(1, 5)},
		{"grouped", cat2, grouped},
	} {
		dp, err := Optimize(tc.cat, tc.q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Optimize(tc.cat, tc.q, Options{Planner: PlannerGreedy})
		if err != nil {
			t.Fatal(err)
		}
		want, got := resultRows(t, tc.cat, dp), resultRows(t, tc.cat, g)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("%s: greedy rows %v, DP rows %v", tc.name, got, want)
		}
	}
}

// resultRows executes the chosen plan and renders its rows sorted, so plans
// that emit the same groups in another order compare equal.
func resultRows(t *testing.T, cat *catalog.Catalog, res *Result) []string {
	t.Helper()
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, plan.Explain(res.Best))
	}
	tuples, err := exec.Collect(op)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, plan.Explain(res.Best))
	}
	out := make([]string, len(tuples))
	for i, tup := range tuples {
		out[i] = fmt.Sprint(tup)
	}
	slices.Sort(out)
	return out
}

// A 16-table chain plans greedily with 16 + 15 MEMO entries: greedy stores
// its path, never a per-subset table (2^16 entries here). The check is a
// count, not a clock.
func TestGreedyWideChainMemo(t *testing.T) {
	const m = 16
	cat, names := workload.RankedSet(m, workload.RankedConfig{N: 40, Selectivity: 0.2, Seed: 306})
	q := chainShape(names).query(t, 5)
	res, err := Optimize(cat, q, Options{Planner: PlannerGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Memo) != 2*m-1 {
		t.Fatalf("greedy memo holds %d entries, want %d", len(res.Memo), 2*m-1)
	}
}

// chainShape is an equal-weight ranked chain join over the tables.
func chainShape(tables []string) churnShape {
	weights := make([]float64, len(tables))
	for i := range weights {
		weights[i] = 1
	}
	return churnShape{tables: tables, weights: weights}
}

func TestParsePlannerMode(t *testing.T) {
	for s, want := range map[string]PlannerMode{"": PlannerDP, "dp": PlannerDP, "greedy": PlannerGreedy} {
		got, err := ParsePlannerMode(s)
		if err != nil || got != want {
			t.Fatalf("ParsePlannerMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePlannerMode("bogus"); err == nil {
		t.Fatal("bogus mode must fail")
	}
	if PlannerGreedy.String() != "greedy" || PlannerDP.String() != "dp" {
		t.Fatal("String round-trip broken")
	}
}

package core

import (
	"math"
	"testing"

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
		if res.Planner != PlannerGreedy || res.GreedyFallback {
			t.Fatalf("m=%d: planner=%v fallback=%v, want greedy", m, res.Planner, res.GreedyFallback)
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

// TestGreedyPlanQualityAcrossSelectivity is the two-speed planner's quality
// gate on the 4-way ranked chain join, swept across three selectivity
// decades: greedy must plan without falling back to the DP, choose a plan
// whose k-cost is within 1.2x of the DP's under the shared cost model, and
// execute the DP's top-k on a 120-row catalog of the same shape. The worst
// cost ratio at 3 000 rows is 1.16 (sel 0.05; the other two points tie). Every
// check is a count or a cost, never a clock.
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
		if g.GreedyFallback {
			t.Fatalf("sel=%g: greedy fell back to the DP (%s)", sel, g.GreedyFallbackReason)
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
	if res.Planner != PlannerGreedy {
		t.Fatalf("non-ranking query fell back: %+v", res.GreedyFallback)
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

// Shapes greedy cannot order confidently fall back to the DP and say so.
func TestGreedyFallback(t *testing.T) {
	// Single table.
	cat1, _ := workload.RankedSet(1, workload.RankedConfig{N: 200, Selectivity: 0.1, Seed: 303})
	res, err := Optimize(cat1, rankedQuery(1, 5), Options{Planner: PlannerGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if res.Planner != PlannerDP || !res.GreedyFallback {
		t.Fatalf("single-table: planner=%v fallback=%v, want DP fallback", res.Planner, res.GreedyFallback)
	}

	// Grouped query.
	cat2, _ := workload.RankedSet(2, workload.RankedConfig{N: 300, Selectivity: 0.1, Seed: 304})
	qg := &logical.Query{
		Tables:  []string{"T1", "T2"},
		Joins:   []logical.JoinPred{{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")}},
		GroupBy: []expr.ColRef{expr.Col("T1", "key")},
		Aggs:    []logical.AggItem{{Func: "COUNT", As: "n"}},
	}
	res2, err := Optimize(cat2, qg, Options{Planner: PlannerGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Planner != PlannerDP || !res2.GreedyFallback {
		t.Fatalf("grouped: planner=%v fallback=%v, want DP fallback", res2.Planner, res2.GreedyFallback)
	}
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

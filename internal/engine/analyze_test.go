package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/workload"
)

// goldenAnalyze is the byte-exact EXPLAIN ANALYZE tree for the seeded 3-way
// rank join below (workload.RankedSet seed 11, see testEngine). Regenerate by
// printing plan.FormatAnalyze(resp.Plan, resp.Analysis, false) when the depth
// model, formatting, or workload generator deliberately changes.
const goldenAnalyze = `EXPLAIN ANALYZE (k=10)
Limit(10)  (rows est=10 act=10 err=0.0%)
  Rank(1*T1.score + 1*T2.score + 1*T3.score)  (rows est=10 act=10 err=0.0%)
    HRJN(T3.key = T2.key)  (rows est=10 act=10 err=0.0%)
      depths: dL est=111 act=53 err=109.7% | dR est=111 act=52 err=113.7% | queue est=124 hwm=43
      Sort(1*T3.score desc)  (rows est=111 act=53 err=109.7%)
        index=idx_T3_score emitted=53
        SeqScan(T3)  (rows est=2000 not read)
      HRJN(T2.key = T1.key)  (rows est=111 act=52 err=113.7%)
        depths: dL est=211 act=116 err=81.8% | dR est=211 act=115 err=83.4% | queue est=445 hwm=74
        Sort(1*T2.score desc)  (rows est=211 act=116 err=81.8%)
          index=idx_T2_score emitted=116
          SeqScan(T2)  (rows est=2000 not read)
        Sort(1*T1.score desc)  (rows est=211 act=115 err=83.4%)
          index=idx_T1_score emitted=115
          SeqScan(T1)  (rows est=2000 not read)
`

// TestAnalyzeGoldenTree pins the \analyze rendering end to end: a 3-way
// rank-join session with Analyze set must produce a stable tree whose
// rank-join lines carry estimated vs actual depths with relative errors.
func TestAnalyzeGoldenTree(t *testing.T) {
	eng := testEngine(t, core.Options{})
	resp := eng.Run(Request{
		ID:      "golden",
		SQL:     "SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + T2.score + T3.score DESC LIMIT 10",
		Analyze: true,
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Analysis == nil {
		t.Fatal("Analyze request returned no Analysis")
	}
	got := plan.FormatAnalyze(resp.Plan, resp.Analysis, false)
	if got != goldenAnalyze {
		t.Errorf("analyze tree diverged from golden.\ngot:\n%s\nwant:\n%s", got, goldenAnalyze)
	}
	// The acceptance shape, independent of exact numbers: both rank joins
	// report est and act depths plus a relative error per side.
	if strings.Count(got, "depths: dL est=") != 2 {
		t.Errorf("expected 2 rank-join depth lines, got:\n%s", got)
	}
	// HRJN alternates between its inputs, so a hierarchy join's estimate
	// must split its depth the way the executor does: the estimated dL/dR
	// within 1.25× of the executed one (Equations 2–5 put it at 300/23
	// against an executed 53/52).
	hier := hierarchyDepths(t, &resp, 10)
	if len(hier) == 0 {
		t.Fatal("plan has no hierarchy rank join")
	}
	for _, h := range hier {
		est, act := h.est[0]/h.est[1], float64(h.act[0])/float64(h.act[1])
		if r := math.Max(est/act, act/est); r > 1.25 {
			t.Errorf("%s: estimated dL/dR %.0f/%.0f against executed %d/%d: split off by %.2f×, want ≤ 1.25×",
				h.label, h.est[0], h.est[1], h.act[0], h.act[1], r)
		}
	}
}

// joinDepths is one rank join's estimated (Local.Need at its propagated
// demand, what Response.RankJoins reports) and executed input depths.
type joinDepths struct {
	label string
	est   [2]float64
	act   [2]int64
}

// hierarchyDepths returns the depths of an analyzed session's hierarchy
// HRJNs — those with a rank join below them, more than two ranked leaves —
// at the session's k.
func hierarchyDepths(t *testing.T, resp *Response, k int) []joinDepths {
	t.Helper()
	var out []joinDepths
	resp.Plan.Walk(func(n *plan.Node) {
		if n.Op != plan.OpHRJN || n.LLeaves+n.RLeaves <= 2 {
			return
		}
		st, ok := resp.Analysis.Stats(n)
		demand, reached := plan.DemandAt(resp.Plan, k, n)
		if !ok || !reached {
			t.Fatalf("%s: no stats or demand for a compiled rank join", rankJoinPredLabel(n))
		}
		out = append(out, joinDepths{rankJoinPredLabel(n), n.Local(demand).Need, [2]int64{st.LeftDepth, st.RightDepth}})
	})
	return out
}

// TestAnalyzeWithTimesAddsTimings checks the timing variant renders sampled
// wall times without disturbing the tree shape (it is excluded from the
// golden comparison because times are nondeterministic).
func TestAnalyzeWithTimesAddsTimings(t *testing.T) {
	eng := testEngine(t, core.Options{})
	resp := eng.Run(Request{
		ID:      "timed",
		SQL:     "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5",
		Analyze: true,
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	got := plan.FormatAnalyze(resp.Plan, resp.Analysis, true)
	if !strings.Contains(got, "(open=") || !strings.Contains(got, "next≈") {
		t.Errorf("withTimes output missing timing fields:\n%s", got)
	}
}

// TestAnalyzeOffLeavesNoCollector ensures plain sessions pay nothing: no
// Analysis, no wrapped operators.
func TestAnalyzeOffLeavesNoCollector(t *testing.T) {
	eng := testEngine(t, core.Options{})
	resp := eng.Run(Request{ID: "plain", SQL: "SELECT * FROM T1 LIMIT 3"})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Analysis != nil {
		t.Fatal("non-analyze session carries an Analysis")
	}
}

// TestAnalyzeEmptyInput runs EXPLAIN ANALYZE over a plan whose filter
// eliminates every row — the zero-output estimator path. The session must
// finish cleanly with zero tuples, and every plan node must carry a finite,
// non-negative cardinality estimate and every rank join finite,
// non-negative depth and queue estimates: the estimate.Propagate zero-OutCard
// short-circuit feeding NaN/Inf into EstDL/EstDR is exactly the regression
// this pins.
func TestAnalyzeEmptyInput(t *testing.T) {
	eng := testEngine(t, core.Options{})
	resp := eng.Run(Request{
		ID:      "empty",
		SQL:     "SELECT * FROM T1, T2 WHERE T1.key = T2.key AND T1.id < 0 ORDER BY T1.score + T2.score DESC LIMIT 10",
		Analyze: true,
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if len(resp.Tuples) != 0 {
		t.Fatalf("filter T1.id < 0 returned %d tuples", len(resp.Tuples))
	}
	if resp.Analysis == nil {
		t.Fatal("Analyze request returned no Analysis")
	}
	resp.Plan.Walk(func(n *plan.Node) {
		if math.IsNaN(n.Card) || math.IsInf(n.Card, 0) || n.Card < 0 {
			t.Errorf("%s: degenerate card estimate %v", n.Op, n.Card)
		}
	})
	for _, rj := range resp.RankJoins {
		for _, v := range []float64{rj.EstDL, rj.EstDR, rj.EstQueue} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: degenerate depth or queue estimate %v", rj.Op, v)
			}
		}
	}
	// The rendered tree must also be well-formed (no NaN leaking into the
	// est columns the REPL shows).
	out := plan.FormatAnalyze(resp.Plan, resp.Analysis, false)
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("EXPLAIN ANALYZE rendered a degenerate estimate:\n%s", out)
	}
}

// TestFilteredScanCostsWhatItsFilterCharges: a Filter of selectivity s
// charges its input k/s rows (plan.Node.CostFrom), here the whole of T1.
// EXPLAIN must price the scan at that demand and EXPLAIN ANALYZE estimate
// it, not pass the Filter's own demand through.
func TestFilteredScanCostsWhatItsFilterCharges(t *testing.T) {
	eng := testEngine(t, core.Options{})
	resp := eng.Run(Request{
		SQL:     "SELECT * FROM T1, T2 WHERE T1.key = T2.key AND T1.id < 400 ORDER BY T1.score + T2.score DESC LIMIT 10",
		Analyze: true,
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	explain := plan.Explain(resp.Plan)
	analyze := plan.FormatAnalyze(resp.Plan, resp.Analysis, false)
	for _, want := range []struct{ out, line string }{
		{explain, "Filter((T1.id < 400))  (card=400 cost=60.0"},
		{explain, "SeqScan(T1)  (card=2000 cost=40.0 "},
		{analyze, "SeqScan(T1)  (rows est=2000 act=2000 err=0.0%)"},
	} {
		if !strings.Contains(want.out, want.line) {
			t.Errorf("missing %q in:\n%s", want.line, want.out)
		}
	}
}

// nrjnTreeSQL is plan-churn's first shape; over nrjnTreeCatalog its plan at
// k ≤ 5 is an HRJN over an NRJN over single leaves.
const nrjnTreeSQL = "SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key " +
	"ORDER BY 0.2*T1.score + 0.3*T2.score + 0.5*T3.score DESC LIMIT %d"

// nrjnTreeCatalog holds T1 and T2 of 1 500 rows (plan-churn's size) and a
// T3 of 60, all keyed from a domain of 10: T3 is so short that ranking it
// and scanning T1 whole as an NRJN's inner beats sorting T1, so the join of
// T3 and T1 is an NRJN under the HRJN that adds T2.
func nrjnTreeCatalog() *catalog.Catalog {
	cat := catalog.New()
	for i, n := range []int{1500, 1500, 60} {
		name := fmt.Sprintf("T%d", i+1)
		cat.AddTable(workload.Ranked(workload.RankedConfig{Name: name, N: n, Selectivity: 0.1, Seed: 2004 + int64(i)*7919}))
		for _, col := range []string{"score", "key"} {
			if _, err := cat.CreateIndex(name, col, false); err != nil {
				panic(err)
			}
		}
	}
	return cat
}

// TestNRJNReportsChargedDepths: an NRJN drains its inner, and its cost
// charges it the whole inner (plan.Node.Local). Response.RankJoins must
// report the depths the cost charges: the inner's card, which is what the
// executor reads, and the NRJN's outer depth at the demand Algorithm
// Propagate gives the join through the HRJN above it, with the queue the
// cost charges for the matches of those depths (s·dL·|R|).
func TestNRJNReportsChargedDepths(t *testing.T) {
	eng := New(nrjnTreeCatalog(), core.Options{})
	const k = 1
	resp := eng.Run(Request{SQL: fmt.Sprintf(nrjnTreeSQL, k)})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	var nrjn *plan.Node
	resp.Plan.Walk(func(n *plan.Node) {
		if n.Op == plan.OpNRJN {
			nrjn = n
		}
	})
	if nrjn == nil || resp.Plan.CountOps(plan.OpHRJN) == 0 {
		t.Fatalf("plan is not an NRJN under an HRJN:\n%s", plan.Explain(resp.Plan))
	}
	demand, ok := plan.DemandAt(resp.Plan, k, nrjn)
	if !ok {
		t.Fatal("NRJN not reached by DemandAt")
	}
	loc := nrjn.Local(demand)
	outer, inner := loc.Need[0], nrjn.Right().Card
	var found bool
	for _, rj := range resp.RankJoins {
		if rj.Op != plan.OpNRJN.String() {
			continue
		}
		found = true
		if rj.EstDR != inner || rj.EstDR != float64(rj.Stats.RightDepth) {
			t.Errorf("NRJN inner: est %v, inner card %v, read %d; want all equal", rj.EstDR, inner, rj.Stats.RightDepth)
		}
		if rj.EstDL != outer {
			t.Errorf("NRJN outer: est %v, want the charged outer depth %v", rj.EstDL, outer)
		}
		if want := nrjn.Sel * outer * inner; rj.EstQueue != want || loc.Queue != want || want <= 0 {
			t.Errorf("NRJN queue: est %v, Local %v, want the charged matches %v", rj.EstQueue, loc.Queue, want)
		}
	}
	if !found {
		t.Fatalf("Response.RankJoins has no NRJN: %+v", resp.RankJoins)
	}
}

// TestAnalyzedDepthAccuracy is the engine-path depth-model gate: analyzed
// sessions over the three 2-way rotations, the 3-way and the 4-way chain of
// a RankedSet catalog, at several k, must report estimated and executed
// depths for every rank join, and the Section-4 estimates must stay within
// a mean relative error (|est-act|/max(act,1), both sides of every join)
// of 0.55 over all rank joins and 0.40 over the hierarchy HRJNs alone. This
// catalog measures 0.439 and 0.313, and the gates are those plus a quarter
// (Equations 2–5's split measured 0.467 and 0.949). TestFig13Accuracy checks
// the estimator alone, this checks the depths the compiled plans actually
// reach.
func TestAnalyzedDepthAccuracy(t *testing.T) {
	cat, _ := workload.RankedSet(4, workload.RankedConfig{N: 4000, Selectivity: 0.005, Seed: 7})
	eng := New(cat, core.Options{})
	shapes := []string{
		"SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT %d",
		"SELECT * FROM T2, T3 WHERE T2.key = T3.key ORDER BY T2.score + T3.score DESC LIMIT %d",
		"SELECT * FROM T1, T3 WHERE T1.key = T3.key ORDER BY T1.score + T3.score DESC LIMIT %d",
		"SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + T2.score + T3.score DESC LIMIT %d",
		"SELECT * FROM T1, T2, T3, T4 WHERE T1.key = T2.key AND T2.key = T3.key AND T3.key = T4.key " +
			"ORDER BY T1.score + T2.score + T3.score + T4.score DESC LIMIT %d",
	}
	relErr := func(est float64, act int64) float64 {
		return math.Abs(est-float64(act)) / math.Max(float64(act), 1)
	}
	var errSum, hierSum float64
	var sides, hierSides int
	for _, k := range []int{1, 10, 50, 100} {
		for _, shape := range shapes {
			sql := fmt.Sprintf(shape, k)
			resp := eng.Run(Request{SQL: sql, Analyze: true})
			if resp.Err != nil {
				t.Fatalf("%s: %v", sql, resp.Err)
			}
			if len(resp.RankJoins) == 0 {
				t.Errorf("%s: plan has no rank join", sql)
			}
			for _, rj := range resp.RankJoins {
				if rj.EstDL <= 0 || rj.EstDR <= 0 || rj.Stats.LeftDepth <= 0 || rj.Stats.RightDepth <= 0 {
					t.Errorf("%s: %s(%s) depths est %.1f/%.1f act %d/%d, want all positive",
						sql, rj.Op, rj.Pred, rj.EstDL, rj.EstDR, rj.Stats.LeftDepth, rj.Stats.RightDepth)
				}
				errSum += relErr(rj.EstDL, int64(rj.Stats.LeftDepth)) + relErr(rj.EstDR, int64(rj.Stats.RightDepth))
				sides += 2
			}
			for _, h := range hierarchyDepths(t, &resp, k) {
				hierSum += relErr(h.est[0], h.act[0]) + relErr(h.est[1], h.act[1])
				hierSides += 2
			}
		}
	}
	if sides == 0 || hierSides == 0 {
		t.Fatalf("rank-join depths observed: %d sides, %d of hierarchy joins", sides, hierSides)
	}
	mean, hier := errSum/float64(sides), hierSum/float64(hierSides)
	t.Logf("mean relative depth error %.3f over %d rank joins, %.3f over its %d hierarchy HRJNs",
		mean, sides/2, hier, hierSides/2)
	if mean > 0.55 {
		t.Errorf("mean relative depth error %.3f exceeds 0.55", mean)
	}
	if hier > 0.40 {
		t.Errorf("hierarchy HRJNs' mean relative depth error %.3f exceeds 0.40", hier)
	}
}

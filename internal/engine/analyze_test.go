package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

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
      depths: dL est=300 act=53 err=466.0% | dR est=23 act=52 err=56.7% | queue hwm=43
      Sort(1*T3.score desc)  (rows est=300 act=53 err=466.0%)
        buffered=2000 emitted=53
        SeqScan(T3)  (rows est=2000 act=2000 err=0.0%)
      HRJN(T2.key = T1.key)  (rows est=23 act=52 err=56.7%)
        depths: dL est=95 act=116 err=18.2% | dR est=95 act=115 err=17.5% | queue hwm=74
        Sort(1*T2.score desc)  (rows est=95 act=116 err=18.2%)
          buffered=2000 emitted=116
          SeqScan(T2)  (rows est=2000 act=2000 err=0.0%)
        Sort(1*T1.score desc)  (rows est=95 act=115 err=17.5%)
          buffered=2000 emitted=115
          SeqScan(T1)  (rows est=2000 act=2000 err=0.0%)
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
// non-negative depth estimates: the estimate.Propagate zero-OutCard
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
		for _, v := range []float64{rj.EstDL, rj.EstDR} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Errorf("%s: degenerate depth estimate %v", rj.Op, v)
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

// TestAnalyzedDepthAccuracy is the engine-path depth-model gate: analyzed
// sessions over the three 2-way rotations and the 3-way join of a RankedSet
// catalog, at several k, must report estimated and executed depths for every
// rank join, and the Section-4 estimates must stay within a mean relative
// error (|est-act|/max(act,1), both sides of every join) of 3.0. This
// catalog measures 0.485; TestFig13Accuracy checks the estimator alone, this
// checks the depths the compiled plans actually reach.
func TestAnalyzedDepthAccuracy(t *testing.T) {
	cat, _ := workload.RankedSet(3, workload.RankedConfig{N: 4000, Selectivity: 0.005, Seed: 7})
	eng := New(cat, core.Options{})
	shapes := []string{
		"SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT %d",
		"SELECT * FROM T2, T3 WHERE T2.key = T3.key ORDER BY T2.score + T3.score DESC LIMIT %d",
		"SELECT * FROM T1, T3 WHERE T1.key = T3.key ORDER BY T1.score + T3.score DESC LIMIT %d",
		"SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + T2.score + T3.score DESC LIMIT %d",
	}
	relErr := func(est float64, act int) float64 {
		return math.Abs(est-float64(act)) / math.Max(float64(act), 1)
	}
	var errSum float64
	var sides int
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
				errSum += relErr(rj.EstDL, rj.Stats.LeftDepth) + relErr(rj.EstDR, rj.Stats.RightDepth)
				sides += 2
			}
		}
	}
	if sides == 0 {
		t.Fatal("no rank-join depths observed")
	}
	mean := errSum / float64(sides)
	t.Logf("mean relative depth error %.3f over %d rank joins", mean, sides/2)
	if mean > 3.0 {
		t.Errorf("mean relative depth error %.2f exceeds 3.0", mean)
	}
}

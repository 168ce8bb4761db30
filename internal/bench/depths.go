package bench

import (
	"fmt"
	"math"

	"rankopt/internal/estimate"
	"rankopt/internal/exec"
)

// planPEstimates carries the three estimate series for one Plan P operator
// level: the Any-k lower bound, the average-case depth, and the worst-case
// Top-k upper bound (each averaged over the two symmetric sides).
type planPEstimates struct {
	anyK, avg, worst float64
}

// estimateSeries annotates a balanced 4-input estimate tree for Plan P under
// each propagation mode and returns the estimates for the top operator and
// for the bottom-level (child) operators.
func estimateSeries(n int, s, slab float64, k int) (top, child planPEstimates, err error) {
	run := func(mode estimate.Mode) (t, c float64, err error) {
		root, err := estimate.Balanced(4, float64(n), slab, s)
		if err != nil {
			return 0, 0, err
		}
		if err := estimate.Propagate(root, float64(k), mode); err != nil {
			return 0, 0, err
		}
		if mode == estimate.ModeAnyK {
			return (root.CL + root.CR) / 2, (root.Left.CL + root.Left.CR) / 2, nil
		}
		return (root.DL + root.DR) / 2, (root.Left.DL + root.Left.DR) / 2, nil
	}
	if top.anyK, child.anyK, err = run(estimate.ModeAnyK); err != nil {
		return
	}
	if top.avg, child.avg, err = run(estimate.ModeAvg); err != nil {
		return
	}
	top.worst, child.worst, err = run(estimate.ModeTopK)
	return
}

func avgDepth(st exec.RankJoinStats) float64 {
	return float64(st.LeftDepth+st.RightDepth) / 2
}

func errPct(est, actual float64) float64 {
	if actual == 0 {
		return 0
	}
	return math.Abs(est-actual) / actual * 100
}

// depthColumns is the shared header of Figures 13 and 14: per operator
// level, the measured depth, the three estimate series, and the estimation
// error of the average-case model (the paper's headline accuracy metric,
// <30% on its data).
var depthColumns = []string{
	"d1/d2 actual", "anyk", "avg", "worst", "avg err%",
	"d5/d6 actual", "anyk", "avg", "worst", "avg err%",
}

func depthRow(k any, leftSt, topSt exec.RankJoinStats, top, child planPEstimates) []any {
	d12 := avgDepth(leftSt)
	d56 := avgDepth(topSt)
	return []any{k,
		d12, child.anyK, child.avg, child.worst, errPct(child.avg, d12),
		d56, top.anyK, top.avg, top.worst, errPct(top.avg, d56),
	}
}

// Fig13 reproduces Figure 13: measured rank-join input depths on Plan P for
// varying k against the Any-k estimate (lower bound), the average-case
// estimate, and the worst-case Top-k estimate (upper bound). The paper's
// claims: the measured depth lies between the Any-k and Top-k estimates and
// the estimation error stays under ~30%.
func Fig13() (*Table, error) {
	const (
		n = 3000
		s = 0.01
	)
	t := &Table{
		Title:   "Figure 13: input depth vs k on Plan P (n=3000, s=0.01)",
		Note:    "d1/d2: bottom rank-join depths; d5/d6: top rank-join depths",
		Columns: append([]string{"k"}, depthColumns...),
	}
	for _, k := range []int{10, 25, 50, 75, 100, 150, 200} {
		p := buildPlanP(n, s, 42)
		topSt, leftSt, _, err := p.run(k)
		if err != nil {
			return nil, err
		}
		top, child, err := estimateSeries(n, s, p.slab, k)
		if err != nil {
			return nil, err
		}
		t.AddRow(depthRow(k, leftSt, topSt, top, child)...)
	}
	return t, nil
}

// Fig14 reproduces Figure 14: measured vs estimated depths varying the join
// selectivity at fixed k. Lower selectivity forces deeper digs.
func Fig14() (*Table, error) {
	const (
		n = 3000
		k = 50
	)
	t := &Table{
		Title:   "Figure 14: input depth vs join selectivity on Plan P (n=3000, k=50)",
		Columns: append([]string{"selectivity"}, depthColumns...),
	}
	for _, s := range []float64{0.002, 0.005, 0.01, 0.02, 0.05, 0.1} {
		p := buildPlanP(n, s, 77)
		topSt, leftSt, _, err := p.run(k)
		if err != nil {
			return nil, err
		}
		top, child, err := estimateSeries(n, s, p.slab, k)
		if err != nil {
			return nil, err
		}
		t.AddRow(depthRow(fmt.Sprintf("%.3f", s), leftSt, topSt, top, child)...)
	}
	return t, nil
}

// Fig15 reproduces Figure 15: the rank-join ranking-buffer (priority queue)
// size of Plan P's bottom-left operator — measured high-water mark against
// the d1·d2·s upper bound computed from measured depths and from estimated
// (average-case and worst-case) depths.
func Fig15() (*Table, error) {
	const (
		n = 3000
		s = 0.01
	)
	t := &Table{
		Title: "Figure 15: rank-join buffer size vs k (n=3000, s=0.01)",
		Note:  "buffer = priority-queue high-water mark of the bottom-left HRJN",
		Columns: []string{"k", "actual buffer", "actual UB (d1*d2*s)",
			"estimated UB (avg)", "estimated UB (worst)"},
	}
	for _, k := range []int{10, 25, 50, 75, 100, 150, 200} {
		p := buildPlanP(n, s, 11)
		_, leftSt, _, err := p.run(k)
		if err != nil {
			return nil, err
		}
		actualUB := estimate.BufferUpperBound(float64(leftSt.LeftDepth), float64(leftSt.RightDepth), s)
		_, child, err := estimateSeries(n, s, p.slab, k)
		if err != nil {
			return nil, err
		}
		t.AddRow(k, leftSt.MaxQueue, actualUB,
			estimate.BufferUpperBound(child.avg, child.avg, s),
			estimate.BufferUpperBound(child.worst, child.worst, s))
	}
	return t, nil
}

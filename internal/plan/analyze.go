package plan

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rankopt/internal/exec"
)

// AnalyzedPlan maps the nodes of one compiled plan to their runtime stats
// collectors. It is filled by CompileWith (pass a fresh &AnalyzedPlan{} as
// Config.Analyze) and consumed by FormatAnalyze after execution; like the
// operator tree it belongs to a single session.
type AnalyzedPlan struct {
	ops map[*Node]*exec.Analyzed
}

// collect wraps node n's operator in a stats collector and records it.
func (ap *AnalyzedPlan) collect(n *Node, op exec.Operator) exec.Operator {
	if ap.ops == nil {
		ap.ops = map[*Node]*exec.Analyzed{}
	}
	a := exec.Analyze(op)
	ap.ops[n] = a
	return a
}

// Stats returns the runtime counters collected for plan node n (false when
// n was not compiled by this plan).
func (ap *AnalyzedPlan) Stats(n *Node) (exec.OpStats, bool) {
	if ap == nil || ap.ops[n] == nil {
		return exec.OpStats{}, false
	}
	return ap.ops[n].ExecStats(), true
}

// effectiveK extracts the top-k bound the plan executes under: the topmost
// k-bearing operator's K, falling back to the root cardinality for
// unbounded plans.
func effectiveK(root *Node) float64 {
	k := 0
	root.Walk(func(n *Node) {
		if k == 0 && n.K > 0 && (n.Op == OpLimit || n.Op == OpTopK || n.Op == OpRankAgg) {
			k = n.K
		}
	})
	if k > 0 {
		return float64(k)
	}
	return root.Card
}

// FormatAnalyze renders the EXPLAIN ANALYZE tree: the plan in Explain's
// indented shape with an estimated-vs-actual row count (the estimate is the
// depth model's propagated demand at the query's k, which is what the
// executor was expected to pull, not the full-output cardinality) and, on
// rank-join nodes, the Section 4 depth estimates at that demand against the
// depths actually reached, with relative errors. withTimes adds the sampled
// Open/Next wall times — keep it off when output must be byte-stable (golden
// tests).
func FormatAnalyze(root *Node, ap *AnalyzedPlan, withTimes bool) string {
	effK := effectiveK(root)
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE (k=%.0f)\n", effK)
	formatAnalyze(&b, root, 0, ap, demands(root, effK), withTimes)
	return b.String()
}

// demands holds the propagated expected pull count per node at top-k bound
// k (Algorithm Propagate): for rank-join children that is the estimated
// depth, for blocking children the full input. A rank join's own demand is
// what its depth estimates are computed at, as DemandAt gives the session
// report.
func demands(root *Node, k float64) map[*Node]float64 {
	est := map[*Node]float64{}
	PropagateK(root, k, func(n *Node, nk float64) { est[n] = nk })
	return est
}

func formatAnalyze(b *strings.Builder, n *Node, depth int, ap *AnalyzedPlan, est map[*Node]float64, withTimes bool) {
	indent := strings.Repeat("  ", depth)
	st, ok := ap.Stats(n)
	switch {
	case !ok:
		fmt.Fprintf(b, "%s%s%s  (rows est=%.0f act=?)\n", indent, n.Op, detail(n), est[n])
	case st.Opens == 0 && st.NextCalls == 0:
		// A Sort that walked an index never opens its scan.
		fmt.Fprintf(b, "%s%s%s  (rows est=%.0f not read)\n", indent, n.Op, detail(n), est[n])
	default:
		fmt.Fprintf(b, "%s%s%s  (rows est=%.0f act=%d err=%s)",
			indent, n.Op, detail(n), est[n], st.TuplesOut, relErrPct(est[n], st.TuplesOut))
		if withTimes {
			fmt.Fprintf(b, " (open=%s next≈%s)",
				time.Duration(st.OpenNanos).Round(time.Microsecond),
				time.Duration(st.EstNextNanos()).Round(time.Microsecond))
		}
		b.WriteByte('\n')
		if n.Op.IsRankJoin() {
			loc := n.Local(est[n])
			dL, dR := loc.Need[0], loc.Need[1]
			fmt.Fprintf(b, "%s  depths: dL est=%.0f act=%d err=%s | dR est=%.0f act=%d err=%s | queue est=%.0f hwm=%d\n",
				indent,
				dL, st.LeftDepth, relErrPct(dL, st.LeftDepth),
				dR, st.RightDepth, relErrPct(dR, st.RightDepth),
				loc.Queue, st.MaxQueue)
		}
		if n.Op == OpTopK {
			fmt.Fprintf(b, "%s  heap hwm=%d\n", indent, st.MaxHeap)
		}
		if n.Op == OpSort && st.SortIndex != "" {
			fmt.Fprintf(b, "%s  index=%s emitted=%d\n", indent, st.SortIndex, st.SortEmitted)
		} else if n.Op == OpSort {
			keys := ""
			if st.SortImageKeys {
				keys = " keys=image"
			}
			fmt.Fprintf(b, "%s  buffered=%d emitted=%d%s\n", indent, st.SortBuffered, st.SortEmitted, keys)
		}
	}
	for _, c := range n.Children {
		formatAnalyze(b, c, depth+1, ap, est, withTimes)
	}
}

// relErrPct renders |est-act|/max(act,1) as a percentage — the depth model's
// accuracy metric (the paper's Section 6 reports it under 30% on its
// workloads).
func relErrPct(estV float64, act int64) string {
	denom := float64(act)
	if denom < 1 {
		denom = 1
	}
	return fmt.Sprintf("%.1f%%", math.Abs(estV-float64(act))/denom*100)
}

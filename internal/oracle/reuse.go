package oracle

import (
	"context"
	"errors"
	"fmt"

	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
)

// ReuseReport summarizes one compiled-tree reuse run.
type ReuseReport struct {
	// Plans is how many alternatives served sessions from one tree.
	Plans int
	// Ops counts the plans that carried each operator type.
	Ops map[plan.OpType]int
	// Failed counts the sessions that failed as they were meant to.
	Failed int
}

// reuseKs are the top-k bounds of a tree's consecutive sessions: the case's
// own, 1, then above both.
func reuseKs(k int) []int { return []int{k, 1, k + 10} }

// reuseFailures are the ways the session before a reused one fails, by the
// error it fails with and the limits and context that cause it.
var reuseFailures = []struct {
	want   error
	limits exec.ResourceLimits
	cancel bool
}{
	{want: exec.ErrQueryCancelled, cancel: true},
	{want: exec.ErrBudgetExceeded, limits: exec.ResourceLimits{MaxBufferedTuples: 1}},
	{want: exec.ErrDepthExceeded, limits: exec.ResourceLimits{MaxDepthPerInput: 1}},
}

// lateCancel is a context whose Err reports cancellation from its after-th
// call on: the drain's entry check passes and the session fails at the first
// poll inside the operators, wherever their cadence puts it.
type lateCancel struct {
	context.Context
	calls, after int
}

func (c *lateCancel) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// RunReuse is the compiled-tree reuse pass: one alternative per distinct set
// of operator types the optimizer enumerates under opts (the others differ
// in join order only) is compiled once, with EXPLAIN ANALYZE collectors, into
// a plan.Tree that then serves consecutive sessions at changing k, as the
// engine's template pools do. Before every session but the first, the
// tree serves one that fails mid-drain — cancelled, over its buffered-tuple
// budget, over its depth cap — which may finish instead when the plan never
// polls, buffers or digs; either way its budget must read zero after it.
// Every good session must return exactly the tuples, rank-join depths and
// queue high-water marks, and EXPLAIN ANALYZE counts of a fresh compile of
// the template instantiated at that k, and its scores must be the brute-force
// top-k.
func RunReuse(c Case, opts core.Options) (ReuseReport, error) {
	q, err := sqlparse.Parse(c.SQL)
	if err != nil {
		return ReuseReport{}, fmt.Errorf("seed %d: parse %q: %w", c.Seed, c.SQL, err)
	}
	opts.CollectAllPlans = true
	res, err := core.Optimize(c.cat, q, opts)
	if err != nil {
		return ReuseReport{}, fmt.Errorf("seed %d: optimize %q: %w", c.Seed, c.SQL, err)
	}
	refs := map[int][]float64{}
	for _, k := range reuseKs(c.K) {
		at := c
		at.K = k
		if refs[k], err = at.reference(q); err != nil {
			return ReuseReport{}, err
		}
	}
	rep := ReuseReport{Ops: map[plan.OpType]int{}}
	kinds := map[uint64]bool{}
	for pi, root := range res.AllPlans {
		fail := func(err error) error {
			return fmt.Errorf("seed %d plan %d: %w\nquery: %s\n%s", c.Seed, pi, err, c.SQL, plan.Explain(root))
		}
		var kind uint64
		root.Walk(func(n *plan.Node) { kind |= 1 << n.Op })
		if kinds[kind] {
			continue
		}
		kinds[kind] = true
		for op := plan.OpType(0); op < 64; op++ {
			if kind&(1<<op) != 0 {
				rep.Ops[op]++
			}
		}
		rep.Plans++
		tmpl := plan.NewTemplate(root, c.K, plan.PlanCounters{})
		ap := &plan.AnalyzedPlan{}
		tree, err := plan.CompileTree(c.cat, tmpl.Root(), plan.Config{Analyze: ap})
		if err != nil {
			return rep, fail(fmt.Errorf("compile: %w", err))
		}
		for si, k := range reuseKs(c.K) {
			if si > 0 {
				f := reuseFailures[(pi+si-1)%len(reuseFailures)]
				var ctx context.Context = context.Background()
				if f.cancel {
					ctx = &lateCancel{Context: ctx, after: 1}
				}
				tree.Arm(k, f.limits, nil)
				_, err := exec.CollectBatch(ctx, tree.Root, tree.Batch())
				if err != nil && !errors.Is(err, f.want) {
					return rep, fail(fmt.Errorf("failing session at k=%d: got %v, want %v", k, err, f.want))
				}
				if err != nil {
					rep.Failed++
				}
				if b := tree.Budget.Buffered(); b != 0 {
					return rep, fail(fmt.Errorf("failed session at k=%d left %d tuples charged", k, b))
				}
			}
			if err := c.checkReused(tmpl, tree, ap, k, refs[k]); err != nil {
				return rep, fail(err)
			}
		}
	}
	return rep, nil
}

// checkReused runs one good session of tree at k and compares it with a
// fresh compile of the template instantiated at k and with brute force.
func (c Case) checkReused(tmpl *plan.Template, tree *plan.Tree, ap *plan.AnalyzedPlan, k int, ref []float64) error {
	tree.Arm(k, exec.ResourceLimits{MaxBufferedTuples: 1 << 40, MaxDepthPerInput: 1 << 40}, nil)
	got, err := exec.CollectBatch(context.Background(), tree.Root, tree.Batch())
	if err != nil {
		return fmt.Errorf("reused session at k=%d: %w", k, err)
	}
	if b := tree.Budget.Buffered(); b != 0 {
		return fmt.Errorf("reused session at k=%d left %d tuples charged", k, b)
	}
	inst := tmpl.Instantiate(k)
	fap := &plan.AnalyzedPlan{}
	fresh, err := plan.CompileTree(c.cat, inst, plan.Config{Analyze: fap})
	if err != nil {
		return fmt.Errorf("fresh compile at k=%d: %w", k, err)
	}
	fresh.Arm(k, exec.ResourceLimits{}, nil)
	want, err := exec.CollectBatch(context.Background(), fresh.Root, fresh.Batch())
	if err != nil {
		return fmt.Errorf("fresh session at k=%d: %w", k, err)
	}
	if err := compareTuples(want, got); err != nil {
		return fmt.Errorf("k=%d: fresh vs reused: %w", k, err)
	}
	for i, h := range tree.Joins {
		if g, w := h.Op.Stats(), fresh.Joins[i].Op.Stats(); g != w {
			return fmt.Errorf("k=%d: %v stats %+v, fresh %+v", k, h.Node.Op, g, w)
		}
	}
	var reused, fresher []exec.OpStats
	tmpl.Root().Walk(func(n *plan.Node) { reused = append(reused, countsOf(ap, n)) })
	inst.Walk(func(n *plan.Node) { fresher = append(fresher, countsOf(fap, n)) })
	for i := range reused {
		if reused[i] != fresher[i] {
			return fmt.Errorf("k=%d: EXPLAIN ANALYZE counts of node %d: reused %+v, fresh %+v", k, i, reused[i], fresher[i])
		}
	}
	scores := make([]float64, len(got))
	for i, t := range got {
		scores[i] = t[len(t)-2].AsFloat()
	}
	if err := compareScores(ref, scores); err != nil {
		return fmt.Errorf("k=%d: reused session vs brute force: %w", k, err)
	}
	return nil
}

// countsOf is a node's EXPLAIN ANALYZE stats without the wall times, which
// differ between any two runs.
func countsOf(ap *plan.AnalyzedPlan, n *plan.Node) exec.OpStats {
	st, _ := ap.Stats(n)
	st.OpenNanos, st.NextNanos, st.BatchNanos = 0, 0, 0
	return st
}

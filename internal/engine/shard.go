package engine

// This file is the engine half of the sharded scatter-gather serving tier.
// When Config.Shards is set, the engine builds per-shard catalogs once at
// construction (zero-copy partitions of the parent heaps, per-shard stats and
// indexes) and compiles every qualifying top-k plan, optimized once against
// the full catalog, into a sharded tree (plan.CompileSharded), which its
// template pools like any other. Sessions whose plan shape or partitioning
// cannot be sharded safely fall back to the single-engine path (counted in
// the shard_fallbacks metric), so enabling sharding never changes which
// queries are answerable.

import (
	"fmt"
	"strconv"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/trace"
)

// ShardCount reports how many shards the engine serves from (0 = unsharded).
func (e *Engine) ShardCount() int { return len(e.shards) }

// ShardError reports why Config.Shards could not be honored (for example a
// table without a partition spec); nil when sharding is off or active.
func (e *Engine) ShardError() error { return e.shardErr }

// shardable reports whether a plan can run on the sharded tier at any top-k
// bound k > 0, when a tree is compiled. The requirements are exactly the
// ones the correctness argument needs:
//
//   - the root is Limit over Rank — the coordinator merges on the score
//     column Rank appends and rewrites its rank column, so both must be the
//     plan's final output (an explicit SELECT list compiles a Project above
//     the Limit and falls back);
//   - every base table carries a partition spec;
//   - every join node equates partition columns of its two sides under
//     compatible specs, so joining tuples always co-locate on one shard and
//     the union of per-shard join results is the global join result.
func (e *Engine) shardable(root *plan.Node) bool {
	if len(e.shards) == 0 || root == nil {
		return false
	}
	if root.Op != plan.OpLimit || len(root.Children) != 1 {
		return false
	}
	rank := root.Input()
	if rank.Op != plan.OpRank || len(rank.Children) != 1 {
		return false
	}
	body := rank.Input()
	for _, t := range body.Tables() {
		if _, ok := e.cat.PartitionOf(t); !ok {
			return false
		}
	}
	ok := true
	body.Walk(func(n *plan.Node) {
		if !ok {
			return
		}
		switch n.Op {
		case plan.OpNLJ, plan.OpINLJ, plan.OpHashJoin, plan.OpMergeJoin, plan.OpHRJN, plan.OpNRJN:
			if !e.joinCoPartitioned(n) {
				ok = false
			}
		case plan.OpRankAgg:
			if !e.taCoPartitioned(n) {
				ok = false
			}
		}
	})
	return ok
}

// joinCoPartitioned reports whether some equi-predicate of the join equates
// the partition columns of its two tables under compatible specs. One such
// predicate suffices: it already restricts matches to co-located tuples, and
// the remaining predicates only filter further.
func (e *Engine) joinCoPartitioned(n *plan.Node) bool {
	for _, p := range n.EqPreds {
		ls, lok := e.cat.PartitionOf(p.L.Table)
		rs, rok := e.cat.PartitionOf(p.R.Table)
		if lok && rok && ls.Column == p.L.Name && rs.Column == p.R.Name && ls.Compatible(rs) {
			return true
		}
	}
	return false
}

// taCoPartitioned reports whether a TA rank-aggregate's inputs are all
// partitioned on their shared object-id column under compatible specs, so an
// object's rows across all inputs land on one shard.
func (e *Engine) taCoPartitioned(n *plan.Node) bool {
	if len(n.TAInputs) == 0 {
		return false
	}
	var first catalog.PartitionSpec
	for i, ti := range n.TAInputs {
		spec, ok := e.cat.PartitionOf(ti.Rel.Name)
		if !ok {
			return false
		}
		idCol := ti.Rel.Schema().Column(ti.IDPos).Name
		if spec.Column != idCol {
			return false
		}
		if i == 0 {
			first = spec
		} else if !first.Compatible(spec) {
			return false
		}
	}
	return true
}

// addShardSpans synthesizes the sharded execute trace: one Chrome lane per
// shard worker carrying the shard's lifetime span (outcome cause, tuples
// pulled, a-priori ceiling vs live bound at decision time), with the shard
// pipeline's per-operator spans laid end-to-end inside it when the session
// collected stats. Pruned shards never ran and render as zero-length markers
// at the execute start.
func addShardSpans(tr *trace.Trace, parent int, st *exec.ShardMergeStats, runs []plan.ShardRun, execStart time.Time) {
	byShard := map[int]plan.ShardRun{}
	for _, r := range runs {
		byShard[r.Shard] = r
	}
	for i := range st.PerShard {
		out := &st.PerShard[i]
		tid := trace.OperatorTID + out.Shard
		start, end := out.StartAt, out.EndAt
		if start.IsZero() {
			start, end = execStart, execStart
		} else if end.Before(start) {
			end = start
		}
		cause := out.Cause
		if cause == "" {
			cause = "aborted"
		}
		sid := tr.AddSpan(parent, fmt.Sprintf("shard %d", out.Shard), "shard", tid, start, end.Sub(start),
			trace.Arg{Key: "cause", Val: cause},
			trace.Arg{Key: "pulled", Val: strconv.Itoa(out.Pulled)},
			trace.Arg{Key: "ceiling_est", Val: fmt.Sprintf("%.3f", out.Ceiling)},
			trace.Arg{Key: "bound_act", Val: fmt.Sprintf("%.3f", out.Bound)},
		)
		r, ok := byShard[out.Shard]
		if !ok || r.Analysis == nil || out.Cause == exec.ShardCausePruned {
			continue
		}
		at := start
		r.Root.Walk(func(n *plan.Node) {
			ost, ok := r.Analysis.Stats(n)
			if !ok {
				return
			}
			dur := time.Duration(ost.OpenNanos + ost.EstNextNanos())
			tr.AddSpan(sid, n.Op.String(), "operator", tid, at, dur,
				trace.Arg{Key: "tuples_out", Val: strconv.FormatInt(ost.TuplesOut, 10)})
			at = at.Add(dur)
		})
	}
}

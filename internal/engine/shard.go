package engine

// This file is the engine half of the sharded scatter-gather serving tier.
// When Config.Shards is set, the engine builds per-shard catalogs once at
// construction (zero-copy partitions of the parent heaps, per-shard stats and
// indexes) and routes every qualifying top-k session through the coordinator
// path: the optimizer runs once against the full catalog, every shard gets an
// a-priori score ceiling from its statistics, and an exec.ShardMerge gathers
// the shard pipelines under the rank-aware early-stop bounds. A shard's
// pipeline — one of the template's pooled trees for that shard, or the
// winning plan cloned, rebound to the shard catalog and compiled — is taken
// only when the gather starts the shard, so a shard pruned on its ceiling
// costs no plan work at all. Sessions whose plan shape
// or partitioning cannot be sharded safely fall back to the single-engine
// path (counted in the shard_fallbacks metric), so enabling sharding never
// changes which queries are answerable.

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/plan"
	"rankopt/internal/relation"
	"rankopt/internal/trace"
)

// ShardCount reports how many shards the engine serves from (0 = unsharded).
func (e *Engine) ShardCount() int { return len(e.shards) }

// ShardError reports why Config.Shards could not be honored (for example a
// table without a partition spec); nil when sharding is off or active.
func (e *Engine) ShardError() error { return e.shardErr }

// shardable reports whether the session's plan can run on the sharded tier
// at the session's top-k bound k. The requirements are exactly the ones the
// correctness argument needs:
//
//   - k > 0 and the root is Limit over Rank — the coordinator merges on the score
//     column Rank appends and rewrites its rank column, so both must be the
//     plan's final output (an explicit SELECT list compiles a Project above
//     the Limit and falls back);
//   - every base table carries a partition spec;
//   - every join node equates partition columns of its two sides under
//     compatible specs, so joining tuples always co-locate on one shard and
//     the union of per-shard join results is the global join result.
func (e *Engine) shardable(root *plan.Node, k int) bool {
	if len(e.shards) == 0 || root == nil {
		return false
	}
	if root.Op != plan.OpLimit || k <= 0 || len(root.Children) != 1 {
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

// shardCeiling computes an a-priori upper bound on any score shard catalog sc
// can produce: each column score term contributes weight·max (weight·min for
// negative weights) from the shard's own statistics. Non-column terms or
// missing statistics yield +Inf (never prune on a bound we cannot prove); a
// shard where any scored table is empty yields -Inf (it cannot produce a
// single result and need never start).
func shardCeiling(sc *catalog.Catalog, score expr.ScoreSum) float64 {
	if len(score.Terms) == 0 {
		return math.Inf(1)
	}
	total := 0.0
	for _, term := range score.Terms {
		cr, ok := term.E.(expr.ColRef)
		if !ok {
			return math.Inf(1)
		}
		tab, err := sc.Table(cr.Table)
		if err != nil {
			return math.Inf(1)
		}
		if tab.Stats.Card == 0 {
			return math.Inf(-1)
		}
		st, ok := tab.Stats.Cols[cr.Name]
		if !ok {
			return math.Inf(1)
		}
		if term.Weight >= 0 {
			total += term.Weight * st.Max
		} else {
			total += term.Weight * st.Min
		}
	}
	return total
}

// shardMerge builds the sharded tier's root: a ShardMerge for the session's
// k over one input per shard (see shardInputs), all charging the session's
// shared budget, whose start width is Config.ShardWidth and which reports
// the session's progress into prog.
func (e *Engine) shardMerge(root *plan.Node, p *pipelines, prog *exec.Progress) (*exec.ShardMerge, error) {
	inputs, err := p.shardInputs(e.shards, root)
	if err != nil {
		return nil, err
	}
	merge, err := exec.NewShardMerge(inputs, p.k, p.budget)
	if err != nil {
		return nil, err
	}
	merge.StartWidth = e.shardWidth
	merge.Progress = prog
	return merge, nil
}

// shardInputs gives the gather one input per shard catalog, with p.shards as
// the shards' slots. Every ceiling is computed first (shardCeiling is pure and
// allocation-free, so it is not cached). Only the shard the gather launches
// first — the highest ceiling, ties to the lower index — is built here: it
// always starts, because nothing can be beaten before the buffer holds k
// tuples, and its schema is every shard's. Every other input is its lazy
// slot. Should the launch order disagree with this pick (NaN ceilings), the
// cost is one built pipeline that never opens, not a wrong answer.
func (p *pipelines) shardInputs(shards []*catalog.Catalog, root *plan.Node) ([]exec.ShardInput, error) {
	score := root.Input().Score
	p.shards = make([]shardPipeline, len(shards))
	shared := &shardShared{collect: p.collect, tmpl: p.tmpl, k: p.k, budget: p.budget, root: root}
	inputs := make([]exec.ShardInput, len(shards))
	first := 0
	for i, sc := range shards {
		p.shards[i] = shardPipeline{shared: shared, shard: i, cat: sc}
		inputs[i].Ceiling = shardCeiling(sc, score)
		if inputs[i].Ceiling > inputs[first].Ceiling {
			first = i
		}
	}
	if err := p.shards[first].build(); err != nil {
		return nil, err
	}
	shared.schema = p.shards[first].tree.Root.Schema()
	for i := range inputs {
		inputs[i].Op = &p.shards[i]
	}
	return inputs, nil
}

// shardShared is what the shard slots of a session share: the session's
// pipelines fields a build reads, the session plan each shard's build
// rebinds, and the schema every shard pipeline outputs.
type shardShared struct {
	collect bool
	tmpl    *plan.Template
	k       int
	budget  *exec.Budget
	root    *plan.Node
	schema  *relation.Schema
}

// shardPipeline is one shard's slot on the sharded tier: its catalog, the
// session's shared fields, and what its build leaves behind —
// the shard's tree and, when collecting, its analyzed run — written only by
// the goroutine that builds it. As an exec.Operator it is the shard's input:
// Open takes the template's pooled tree for the shard or compiles one from a
// clone of the session plan rebound to the shard catalog — on the shard's
// worker goroutine, unless shardInputs built it — then opens it, so a shard
// the gather prunes is never built.
type shardPipeline struct {
	shared *shardShared
	shard  int
	cat    *catalog.Catalog
	tree   *plan.Tree // nil until built
	run    plan.ShardRun
}

// build gives the slot its shard's tree, armed to charge the session budget
// at the session's k.
func (s *shardPipeline) build() error {
	sh := s.shared
	t, run, err := compile(sh.tmpl, sh.collect, s.cat, sh.root, s.shard)
	if err != nil {
		return err
	}
	t.Share(sh.k, sh.budget)
	s.tree, s.run = t, run
	return nil
}

// Schema implements exec.Operator: the schema every shard pipeline shares.
func (s *shardPipeline) Schema() *relation.Schema { return s.shared.schema }

// Open implements exec.Operator, building the pipeline on first use. A build
// error fails Open with nothing opened.
func (s *shardPipeline) Open(ctx context.Context) error {
	if s.tree == nil {
		if err := s.build(); err != nil {
			return err
		}
	}
	return s.tree.Root.Open(ctx)
}

// Next implements exec.Operator.
func (s *shardPipeline) Next() (relation.Tuple, bool, error) { return s.tree.Root.Next() }

// Close implements exec.Operator. The gather closes only pipelines that
// opened, so the slot is built.
func (s *shardPipeline) Close() error { return s.tree.Root.Close() }

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

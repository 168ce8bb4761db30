package plan

import (
	"context"
	"fmt"
	"math"

	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// CompileSharded compiles a shardable plan into one tree whose Root is an
// exec.ShardMerge of start width width over one pipeline per shard: the plan
// rebound to the shard catalog and compiled onto the tree's Budget (with its
// own collectors when analyze is set) when a gather first starts the shard,
// so a pruned shard is never built. Only the shard launched first (highest
// ceiling, ties to the lower index) is built here: it always starts, and its
// schema is every shard's. NaN ceilings can make the launch order disagree,
// which costs one built pipeline that never opens, not a wrong answer.
func CompileSharded(shards []*catalog.Catalog, root *Node, width int, analyze bool) (*Tree, error) {
	t := &Tree{Plan: root, Budget: new(exec.Budget), analyze: analyze}
	t.shards = make([]shardPipeline, len(shards))
	t.inputs = make([]exec.ShardInput, len(shards))
	for i, sc := range shards {
		t.shards[i] = shardPipeline{owner: t, shard: i, cat: sc}
		t.inputs[i].Op = &t.shards[i]
	}
	t.armShards()
	first := 0
	for i := range t.inputs {
		if t.inputs[i].Ceiling > t.inputs[first].Ceiling {
			first = i
		}
	}
	if err := t.shards[first].build(); err != nil {
		return nil, err
	}
	built := t.shards[first].tree
	t.schema, t.Columns = built.Root.Schema(), built.Columns
	merge, err := exec.NewShardMerge(t.inputs, root.K, t.Budget)
	if err != nil {
		return nil, err
	}
	merge.StartWidth = width
	t.merge, t.Root = merge, merge
	return t, nil
}

// armShards marks no shard run and recomputes every ceiling (shardCeiling is
// pure and allocates nothing, so ceilings are never cached).
func (t *Tree) armShards() {
	for i := range t.shards {
		t.shards[i].ran = false
		t.inputs[i].Ceiling = shardCeiling(t.shards[i].cat, t.Plan.Input().Score)
	}
}

// ShardInputs returns a sharded tree's merge inputs (nil unsharded), read-only.
func (t *Tree) ShardInputs() []exec.ShardInput { return t.inputs }

// Pipelines calls f with each pipeline — the tree itself as shard -1, or each
// shard's in order, p nil until built — and whether the last session ran it,
// once that session's drain has returned (and the gather joined its workers).
func (t *Tree) Pipelines(f func(shard int, p *Tree, ran bool)) {
	if t.merge == nil {
		f(-1, t, true)
		return
	}
	for i := range t.shards {
		s := &t.shards[i]
		f(i, s.tree, s.ran)
	}
}

// Runs returns the analyzed run of every pipeline the tree's last session
// ran that collected stats, in Pipelines order; nil when none did.
func (t *Tree) Runs() []ShardRun {
	var runs []ShardRun
	t.Pipelines(func(shard int, p *Tree, ran bool) {
		if ran && p.Analysis != nil {
			runs = append(runs, ShardRun{Shard: shard, Root: p.Plan, Analysis: p.Analysis})
		}
	})
	return runs
}

// shardPipeline is one shard's input of a sharded tree. The shard's worker
// opens it, building its tree on first use and setting ran for the session.
type shardPipeline struct {
	owner *Tree
	shard int
	cat   *catalog.Catalog
	tree  *Tree // nil until built
	ran   bool
}

// build compiles the owner's plan rebound to the shard catalog onto the
// owner's budget, armed with the merge's k.
func (s *shardPipeline) build() error {
	o := s.owner
	root := o.Plan.Clone()
	if err := Rebind(root, s.cat); err != nil {
		return fmt.Errorf("plan: shard %d: %w", s.shard, err)
	}
	var cfg Config
	if o.analyze {
		cfg.Analyze = &AnalyzedPlan{}
	}
	t, err := compileTree(s.cat, root, cfg, o.Budget)
	if err != nil {
		return fmt.Errorf("plan: shard %d compile: %w", s.shard, err)
	}
	if o.merge != nil {
		t.setK(o.merge.K)
	}
	s.tree = t
	return nil
}

// Schema implements exec.Operator: the schema every shard pipeline shares.
func (s *shardPipeline) Schema() *relation.Schema { return s.owner.schema }

// Open implements exec.Operator, building the pipeline on first use. A build
// error fails Open with nothing opened.
func (s *shardPipeline) Open(ctx context.Context) error {
	if s.tree == nil {
		if err := s.build(); err != nil {
			return err
		}
	}
	s.ran = true
	return s.tree.Root.Open(ctx)
}

// Next implements exec.Operator.
func (s *shardPipeline) Next() (relation.Tuple, bool, error) { return s.tree.Root.Next() }

// Close implements exec.Operator. The gather closes only opened pipelines.
func (s *shardPipeline) Close() error { return s.tree.Root.Close() }

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

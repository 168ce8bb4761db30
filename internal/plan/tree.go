package plan

import (
	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/relation"
)

// Tree is one compiled operator tree, built to serve many sessions one at a
// time. Compiling a plan — operator structs, concatenated schemas, bound
// score and key evaluators — is the same work for every session of a cached
// template; only the top-k bound and the resource limits differ. A Tree
// keeps the construction-time state and re-arms exactly those two before
// each session (Arm). Run-time buffers do not stay with
// it: every operator returns its hash tables, queues and sort arrays to the
// executor's pools at Close, so an idle tree holds no tuple of the session
// it served.
//
// A sharded tree (CompileSharded) is the same thing for the sharded tier:
// its Root is the exec.ShardMerge, over one pipeline per shard, each a Tree
// of its own on the sharded tree's Budget.
type Tree struct {
	// Root is the operator a session opens and drains: the compiled plan.
	Root exec.Operator
	// Plan is the plan the tree was compiled from. Sessions share it, so it
	// is never written: its Limit and TopK bounds are the template's, not
	// the session's.
	Plan *Node
	// Budget is the tree's own budget, wired into every buffering operator
	// at compile time and re-armed per session. It reads zero between
	// sessions.
	Budget *exec.Budget
	// Analysis holds the collectors of Config.Analyze; nil on a sharded
	// tree, whose shard pipelines have their own.
	Analysis *AnalyzedPlan
	// Columns are the qualified output column names.
	Columns []string
	// Joins and AnyKs are the stats handles of the rank joins and any-k
	// enumerators with their plan nodes, in compile order.
	Joins, AnyKs []TreeOp

	limits []*exec.Limit
	topks  []*exec.TopK
	batch  *exec.Batch
	// A sharded tree's (CompileSharded): the merge over one input per shard,
	// whose Op is the shard's pipeline, and the schema every pipeline
	// outputs; analyze gives each pipeline its own stats collectors.
	merge   *exec.ShardMerge
	inputs  []exec.ShardInput
	shards  []shardPipeline
	schema  *relation.Schema
	analyze bool
}

// TreeOp pairs a compiled operator, as its stats handle, with its plan node.
type TreeOp struct {
	Node *Node
	Op   exec.StatsReporter
}

// CompileTree compiles n against cat into a reusable tree under cfg, wiring
// the tree's own budget into its operators.
func CompileTree(cat *catalog.Catalog, n *Node, cfg Config) (*Tree, error) {
	return compileTree(cat, n, cfg, new(exec.Budget))
}

// compileTree is CompileTree with budget b wired into the operators.
func compileTree(cat *catalog.Catalog, n *Node, cfg Config, b *exec.Budget) (*Tree, error) {
	t := &Tree{Plan: n, Budget: b, Analysis: cfg.Analyze}
	c := &compiler{cat: cat, cfg: cfg, tree: t, budget: b}
	op, err := c.compile(n)
	if err != nil {
		return nil, err
	}
	t.Root = op
	sch := op.Schema()
	t.Columns = make([]string, sch.Len())
	for i := range t.Columns {
		t.Columns[i] = sch.Column(i).QualifiedName()
	}
	return t, nil
}

// note records a compiled operator the tree re-arms or reports on.
func (t *Tree) note(n *Node, op exec.Operator) {
	switch o := op.(type) {
	case *exec.Limit:
		t.limits = append(t.limits, o)
		return
	case *exec.TopK:
		t.topks = append(t.topks, o)
		return
	}
	sr, ok := op.(exec.StatsReporter)
	switch {
	case !ok:
	case n.Op.IsRankJoin():
		t.Joins = append(t.Joins, TreeOp{n, sr})
	case n.Op == OpAnyK:
		t.AnyKs = append(t.AnyKs, TreeOp{n, sr})
	}
}

// Arm readies the tree for a session at top-k bound k (0 keeps the plan's
// bounds) under limits l. Call it only on a tree no session has open. On a
// sharded tree it also arms the merge and every built shard pipeline with k,
// and recomputes each shard's ceiling (armShards).
func (t *Tree) Arm(k int, l exec.ResourceLimits) {
	t.setK(k)
	t.Budget.Arm(l)
	t.armShards()
	want := exec.DefaultBatchSize
	if k > 0 {
		want = min(k, want)
	}
	if t.batch == nil || t.batch.Cap() < want {
		t.batch = exec.NewBatch(want)
	}
}

func (t *Tree) setK(k int) {
	if k <= 0 {
		return
	}
	for _, l := range t.limits {
		l.K = k
	}
	for _, tk := range t.topks {
		tk.K = k
	}
	if t.merge != nil {
		t.merge.K = k
		for i := range t.shards {
			if p := t.shards[i].tree; p != nil {
				p.setK(k)
			}
		}
	}
}

// Progress returns the progress block the drain of Root counts into: p, or
// nil on a sharded tree, whose merge reports the gather's progress into p.
func (t *Tree) Progress(p *exec.Progress) *exec.Progress {
	if t.merge == nil {
		return p
	}
	t.merge.Progress = p
	return nil
}

// Batch is the batch an armed tree's root drains into, sized by the
// session's k.
func (t *Tree) Batch() *exec.Batch { return t.batch }

package exec

import (
	"context"
	"fmt"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// Filter passes through tuples satisfying the predicate. NULL predicate
// results drop the tuple (SQL semantics).
type Filter struct {
	In   Operator
	Pred expr.Expr

	ev      expr.Eval
	fast    expr.CmpEval
	hasFast bool
	cancel  canceller
	src     batchSource
	in      *Batch
}

// NewFilter constructs a filter.
func NewFilter(in Operator, pred expr.Expr) *Filter { return &Filter{In: in, Pred: pred} }

// Schema implements Operator.
func (f *Filter) Schema() *relation.Schema { return f.In.Schema() }

// Open implements Operator, forwarding the context to the input.
func (f *Filter) Open(ctx context.Context) error {
	if err := f.In.Open(ctx); err != nil {
		return err
	}
	if f.ev == nil {
		ev, err := f.Pred.Bind(f.In.Schema())
		if err != nil {
			closeQuietly(f.In)
			return err
		}
		f.ev = ev
		f.fast, f.hasFast = expr.CompileCmp(f.Pred, f.In.Schema())
	}
	f.cancel.reset(ctx)
	f.src.reset(ctx, f.In)
	return nil
}

// Next implements Operator.
func (f *Filter) Next() (relation.Tuple, bool, error) {
	for {
		// A highly selective predicate can reject unboundedly many input
		// tuples between matches, so the reject loop itself must poll.
		if err := f.cancel.poll(); err != nil {
			return nil, false, err
		}
		t, ok, err := f.In.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		pass, err := expr.EvalBool(f.ev, t)
		if err != nil {
			return nil, false, err
		}
		if pass {
			return t, true, nil
		}
	}
}

// NextBatch implements BatchOperator: whole input batches are evaluated per
// round, through the de-boxed comparison fast path when the predicate
// compiled to one, and rejects cost a skipped slot instead of another
// interface call. Rounds continue until at least one tuple survives, with
// one unconditional context check per round.
func (f *Filter) NextBatch(out *Batch, max int) (bool, error) {
	out.Reset()
	if f.in == nil {
		f.in = NewBatch(min(max, DefaultBatchSize))
	}
	for {
		if err := f.cancel.check(); err != nil {
			return false, err
		}
		ok, err := f.src.next(f.in, max)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
		if f.hasFast {
			// Same-package access to the batch's backing slice lets the
			// expr kernel filter straight into it with no per-tuple calls.
			kept, err := f.fast.FilterAppend(out.tuples, f.in.Tuples())
			out.tuples = kept
			if err != nil {
				return false, err
			}
		} else {
			for _, t := range f.in.Tuples() {
				pass, err := expr.EvalBool(f.ev, t)
				if err != nil {
					return false, err
				}
				if pass {
					out.Append(t)
				}
			}
		}
		if out.Len() > 0 {
			return true, nil
		}
	}
}

// Close implements Operator.
func (f *Filter) Close() error {
	f.in.drop()
	return f.In.Close()
}

// ProjectItem is one output column of a projection: an expression and the
// name it is exposed under.
type ProjectItem struct {
	E    expr.Expr
	As   string
	Kind relation.Kind
}

// Project computes derived columns. The output schema qualifies columns with
// an empty table name unless As contains a dot.
type Project struct {
	In    Operator
	Items []ProjectItem

	schema *relation.Schema
	evals  []expr.Eval
	// colIdx[i] is the input column index when item i is a bare column
	// reference (the overwhelmingly common projection), -1 otherwise.
	colIdx []int
	src    batchSource
	in     *Batch
	arena  tupleArena
}

// NewProject constructs a projection.
func NewProject(in Operator, items ...ProjectItem) *Project {
	cols := make([]relation.Column, len(items))
	for i, it := range items {
		cols[i] = relation.Column{Name: it.As, Kind: it.Kind}
	}
	return &Project{In: in, Items: items, schema: relation.NewSchema(cols...)}
}

// Schema implements Operator.
func (p *Project) Schema() *relation.Schema { return p.schema }

// Open implements Operator, forwarding the context to the input.
func (p *Project) Open(ctx context.Context) error {
	if err := p.In.Open(ctx); err != nil {
		return err
	}
	if err := p.bind(); err != nil {
		closeQuietly(p.In)
		return err
	}
	p.src.reset(ctx, p.In)
	return nil
}

// bind resolves the item evaluators on the first Open; a reopened
// projection keeps them.
func (p *Project) bind() error {
	if p.evals != nil {
		return nil
	}
	evals, colIdx := make([]expr.Eval, len(p.Items)), make([]int, len(p.Items))
	for i, it := range p.Items {
		ev, err := it.E.Bind(p.In.Schema())
		if err != nil {
			return err
		}
		evals[i] = ev
		if idx, ok := expr.ColIndex(it.E, p.In.Schema()); ok {
			colIdx[i] = idx
		} else {
			colIdx[i] = -1
		}
	}
	p.evals, p.colIdx = evals, colIdx
	return nil
}

// Next implements Operator, carving the row from the arena NextBatch uses:
// with no batch announced, its chunks start at one row and double, so k rows
// pulled one at a time cost about log2(k) allocations.
func (p *Project) Next() (relation.Tuple, bool, error) {
	t, ok, err := p.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := p.arena.alloc(len(p.evals))
	for i, ev := range p.evals {
		v, err := ev(t)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

// NextBatch implements BatchOperator. Output tuples are carved from the
// arena, so a batch of projections costs one allocation per chunk instead of
// one per tuple.
func (p *Project) NextBatch(out *Batch, max int) (bool, error) {
	out.Reset()
	if p.in == nil {
		p.in = NewBatch(min(max, DefaultBatchSize))
	}
	ok, err := p.src.next(p.in, max)
	if err != nil || !ok {
		return false, err
	}
	p.arena.reserve(p.in.Len(), len(p.evals))
	for _, t := range p.in.Tuples() {
		row := p.arena.alloc(len(p.evals))
		for i := range p.evals {
			if ci := p.colIdx[i]; ci >= 0 && ci < len(t) {
				row[i] = t[ci]
				continue
			}
			v, err := p.evals[i](t)
			if err != nil {
				return false, err
			}
			row[i] = v
		}
		out.Append(row)
	}
	return true, nil
}

// Close implements Operator.
func (p *Project) Close() error {
	p.in.drop()
	p.arena = tupleArena{}
	return p.In.Close()
}

// Limit stops after K tuples — the top-k cut that makes rank plans early-out.
type Limit struct {
	In Operator
	K  int

	n   int
	src batchSource
}

// NewLimit constructs a limit.
func NewLimit(in Operator, k int) *Limit { return &Limit{In: in, K: k} }

// Schema implements Operator.
func (l *Limit) Schema() *relation.Schema { return l.In.Schema() }

// Open implements Operator, forwarding the context to the input.
func (l *Limit) Open(ctx context.Context) error {
	if l.K < 0 {
		return fmt.Errorf("exec: negative limit %d", l.K)
	}
	l.n = 0
	if err := l.In.Open(ctx); err != nil {
		return err
	}
	l.src.reset(ctx, l.In)
	return nil
}

// Next implements Operator.
func (l *Limit) Next() (relation.Tuple, bool, error) {
	if l.n >= l.K {
		return nil, false, nil
	}
	t, ok, err := l.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.n++
	return t, true, nil
}

// NextBatch implements BatchOperator. Demand is clamped to the tuples still
// owed, so a batch pull through Limit never overpulls a lazy rank-join child
// past K — the early termination the cut exists for. Fan-out children may
// still overshoot the clamp for one round; Truncate discards the excess.
func (l *Limit) NextBatch(out *Batch, max int) (bool, error) {
	rem := l.K - l.n
	if rem <= 0 {
		out.Reset()
		return false, nil
	}
	if max > rem {
		max = rem
	}
	ok, err := l.src.next(out, max)
	if err != nil || !ok {
		return false, err
	}
	out.Truncate(rem)
	l.n += out.Len()
	return true, nil
}

// Close implements Operator.
func (l *Limit) Close() error { return l.In.Close() }

// RankAssign appends two columns to each input tuple: the combined score
// under the given scoring expression and the 1-based rank position. It
// assumes its input already arrives in descending score order (either from a
// rank-join pipeline or from a sort enforcer), matching SQL's
// rank() OVER (ORDER BY ...) for distinct scores.
type RankAssign struct {
	In    Operator
	Score expr.Expr

	schema *relation.Schema
	ev     expr.Eval
	rank   int64
	src    batchSource
	in     *Batch
	arena  tupleArena
	// gathered is the row slot of the shard gather this run feeds, nil
	// outside one: the rows are then carved from pooled chunks (rows) and
	// handed to the slot at Close, since the gather copies every row it
	// keeps and recycles the slot once its last in-flight row is read (see
	// shardRun). Outside a gather the rows are the caller's, from arena.
	gathered *releaseRows
	rows     releaseRows
}

// NewRankAssign constructs the rank annotator.
func NewRankAssign(in Operator, score expr.Expr) *RankAssign {
	cols := append(in.Schema().Columns(),
		relation.Column{Name: "score", Kind: relation.KindFloat},
		relation.Column{Name: "rank", Kind: relation.KindInt},
	)
	return &RankAssign{In: in, Score: score, schema: relation.NewSchema(cols...)}
}

// Schema implements Operator.
func (r *RankAssign) Schema() *relation.Schema { return r.schema }

// Open implements Operator, forwarding the context to the input.
func (r *RankAssign) Open(ctx context.Context) error {
	if err := r.In.Open(ctx); err != nil {
		return err
	}
	if r.ev == nil {
		ev, err := r.Score.Bind(r.In.Schema())
		if err != nil {
			closeQuietly(r.In)
			return err
		}
		r.ev = ev
		// Every input row is copied into an output row, and the input batch
		// is cleared at Close before the input is closed.
		readCopied(r.In)
	}
	r.rank = 0
	r.src.reset(ctx, r.In)
	r.gathered = gatheredRows(ctx)
	r.rows.copied = r.gathered != nil
	return nil
}

// newRow returns an output row of n values (see gathered).
func (r *RankAssign) newRow(n int) relation.Tuple {
	if r.gathered != nil {
		return r.rows.newRow(n)[:n]
	}
	return r.arena.alloc(n)
}

// Next implements Operator, carving the row as newRow does — the path a shard
// coordinator pulls each pipeline's answers through.
func (r *RankAssign) Next() (relation.Tuple, bool, error) {
	t, ok, err := r.In.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	v, err := r.ev(t)
	if err != nil {
		return nil, false, err
	}
	r.rank++
	out := r.newRow(len(t) + 2)
	copy(out, t)
	out[len(t)], out[len(t)+1] = v, relation.Int(r.rank)
	return out, true, nil
}

// NextBatch implements BatchOperator, carving the widened output tuples as
// newRow does.
func (r *RankAssign) NextBatch(out *Batch, max int) (bool, error) {
	out.Reset()
	if r.in == nil {
		r.in = NewBatch(min(max, DefaultBatchSize))
	}
	ok, err := r.src.next(r.in, max)
	if err != nil || !ok {
		return false, err
	}
	r.arena.reserve(r.in.Len(), r.schema.Len())
	for _, t := range r.in.Tuples() {
		v, err := r.ev(t)
		if err != nil {
			return false, err
		}
		r.rank++
		row := r.newRow(len(t) + 2)
		copy(row, t)
		row[len(t)] = v
		row[len(t)+1] = relation.Int(r.rank)
		out.Append(row)
	}
	return true, nil
}

// Close implements Operator.
func (r *RankAssign) Close() error {
	r.in.drop()
	r.arena = tupleArena{}
	if r.gathered != nil {
		r.rows.handOver(r.gathered)
		r.gathered = nil
	}
	return r.In.Close()
}

package exec

import (
	"context"

	"rankopt/internal/expr"
	"rankopt/internal/ranking"
	"rankopt/internal/relation"
)

// TopK keeps only the K highest-scoring tuples of its input using a bounded
// min-heap, then emits them in descending score order. It is the classic
// ORDER BY ... LIMIT K optimization: versus a full sort it holds K tuples
// instead of the whole input and does O(n log K) work. Like Sort it is
// blocking, but its memory footprint is K, which matters to the buffer-size
// story of rank plans' competitors.
type TopK struct {
	In    Operator
	Score expr.Expr
	K     int
	// Budget, when set, is charged for every tuple held in the bounded heap.
	Budget *Budget

	// ev is the score evaluator, bound on the first Open.
	ev      expr.Eval
	out     []relation.Tuple
	pos     int
	maxHeap int
	acct    accountant
}

// gauges exposes the bounded-heap high-water mark to the Analyzed collector.
func (t *TopK) gauges() analyzeGauges { return analyzeGauges{maxHeap: t.maxHeap} }

// NewTopK constructs the operator.
func NewTopK(in Operator, score expr.Expr, k int) *TopK {
	return &TopK{In: in, Score: score, K: k}
}

// Schema implements Operator.
func (t *TopK) Schema() *relation.Schema { return t.In.Schema() }

// Open implements Operator: the blocking drain polls the context on
// the sampling cadence, so even this bounded-memory blocking operator obeys
// cancellation mid-load.
func (t *TopK) Open(ctx context.Context) error {
	if err := t.In.Open(ctx); err != nil {
		return err
	}
	if err := t.load(ctx); err != nil {
		t.acct.releaseAll()
		closeQuietly(t.In)
		return err
	}
	return nil
}

// load binds the score and drains the opened input through the heap.
func (t *TopK) load(ctx context.Context) error {
	t.acct.releaseAll()
	t.acct.budget = t.Budget.bound()
	if t.ev == nil {
		ev, err := t.Score.Bind(t.In.Schema())
		if err != nil {
			return err
		}
		t.ev = ev
	}
	ev := t.ev
	var c canceller
	c.reset(ctx)
	// The bounded heap's tie key is the arrival order: later arrivals lose
	// ties, so the operator is deterministic and stable.
	h := make(ranking.Heap[relation.Tuple], 0, sizeHint(float64(t.K)))
	var seq int64
	for {
		if err := c.poll(); err != nil {
			return err
		}
		tup, ok, err := t.In.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		v, err := ev(tup)
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		// Only heap growth charges the budget; steady-state replacement
		// keeps the footprint at K.
		if h.Offer(ranking.Entry[relation.Tuple]{Score: v.AsFloat(), Tie: seq, Val: tup}, t.K) {
			if err := t.acct.charge(1); err != nil {
				return err
			}
		}
		seq++
	}
	t.maxHeap = len(h)
	h.SortBest()
	t.out = t.out[:0]
	for _, e := range h {
		t.out = append(t.out, e.Val)
	}
	t.pos = 0
	return nil
}

// Next implements Operator.
func (t *TopK) Next() (relation.Tuple, bool, error) {
	if t.pos >= len(t.out) {
		return nil, false, nil
	}
	tup := t.out[t.pos]
	t.pos++
	return tup, true, nil
}

// Close implements Operator.
func (t *TopK) Close() error {
	t.out = nil
	t.acct.releaseAll()
	return t.In.Close()
}

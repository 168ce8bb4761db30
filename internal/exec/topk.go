package exec

import (
	"context"

	"rankopt/internal/expr"
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
	h := make(topHeap[relation.Tuple], 0, sizeHint(float64(t.K)))
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
		if h.Offer(heapEntry[relation.Tuple]{Score: v.AsFloat(), Tie: seq, Val: tup}, t.K) {
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

// heapEntry is one candidate in a topHeap: its score, a tie key, and the
// payload it stands for.
type heapEntry[T any] struct {
	Score float64
	// Tie orders equal scores: the larger key is the weaker entry (a later
	// arrival, a higher shard).
	Tie int64
	Val T
}

// topHeap is the bounded min-heap a top-k buffer keeps its best entries in,
// ordered by (Score, -Tie): the root is the weakest kept entry, so a full
// heap turns a candidate away with one comparison. TopK and ShardMerge
// buffer through it. It is hand-rolled over a typed slice — container/heap's
// any-typed Push and Pop box an entry per call — and sifts exactly as
// container/heap does, so the same entries survive ties.
type topHeap[T any] []heapEntry[T]

// Offer keeps e if the heap holds fewer than k entries, or if e outscores the
// weakest kept entry, which it then replaces. A candidate that only ties the
// weakest score is turned away. Offer reports whether the heap grew.
func (h *topHeap[T]) Offer(e heapEntry[T], k int) (grew bool) {
	s := *h
	if len(s) < k {
		s = append(s, e)
		*h = s
		for i := len(s) - 1; i > 0; {
			p := (i - 1) / 2
			if !s.weaker(i, p) {
				break
			}
			s[i], s[p] = s[p], s[i]
			i = p
		}
		return true
	}
	if len(s) > 0 && e.Score > s[0].Score {
		s[0] = e
		s.down(len(s))
	}
	return false
}

// SortBest orders the entries best first, in place: a heapsort that moves the
// weakest entry to the back one at a time. h is no longer a heap afterwards.
func (h topHeap[T]) SortBest() {
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h.down(n)
	}
}

// weaker reports whether entry i loses to entry j: a lower score or, on a
// tie, the larger tie key.
func (h topHeap[T]) weaker(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Tie > h[j].Tie
}

// down sifts the root down within the first n entries.
func (h topHeap[T]) down(n int) {
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			return
		}
		w := l
		if r := l + 1; r < n && h.weaker(r, l) {
			w = r
		}
		if !h.weaker(w, i) {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

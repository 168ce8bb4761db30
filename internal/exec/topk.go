package exec

import (
	"cmp"
	"context"
	"slices"

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

// topKItem pairs a tuple with its score inside the bounded heap.
type topKItem struct {
	score float64
	seq   int
	tuple relation.Tuple
}

// topKHeap is a min-heap on (score, -seq): the root is the weakest kept
// tuple; later arrivals lose ties so the operator is deterministic and
// stable. Like scoreQueue it is hand-rolled — container/heap's any-typed
// interface would box a topKItem per insertion on the per-input-tuple path.
type topKHeap []topKItem

// weaker reports whether element i loses to element j (lower score; on a
// tie the later arrival is weaker).
func (h topKHeap) weaker(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	return h[i].seq > h[j].seq
}

// push inserts an item, sifting it up.
func (h *topKHeap) push(it topKItem) {
	s := append(*h, it)
	*h = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.weaker(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// fixRoot restores the heap after the root (the weakest kept tuple) was
// replaced in place.
func (h topKHeap) fixRoot() {
	n := len(h)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		weakest := l
		if r := l + 1; r < n && h.weaker(r, l) {
			weakest = r
		}
		if !h.weaker(weakest, i) {
			break
		}
		h[i], h[weakest] = h[weakest], h[i]
		i = weakest
	}
}

// Open implements Operator: the blocking drain polls the context on
// the sampling cadence, so even this bounded-memory blocking operator obeys
// cancellation mid-load.
func (t *TopK) Open(ctx context.Context) error {
	if err := t.In.Open(ctx); err != nil {
		return err
	}
	if err := t.load(ctx); err != nil {
		closeQuietly(t.In)
		return err
	}
	return nil
}

// load binds the score and drains the opened input through the heap.
func (t *TopK) load(ctx context.Context) error {
	t.acct.releaseAll()
	t.acct.budget = t.Budget
	ev, err := t.Score.Bind(t.In.Schema())
	if err != nil {
		return err
	}
	var c canceller
	c.reset(ctx)
	h := make(topKHeap, 0, sizeHint(float64(t.K)))
	seq := 0
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
		s := v.AsFloat()
		switch {
		case len(h) < t.K:
			// Only heap growth charges the budget; steady-state replacement
			// keeps the footprint at K.
			if err := t.acct.charge(1); err != nil {
				return err
			}
			h.push(topKItem{score: s, seq: seq, tuple: tup})
		case s > h[0].score:
			h[0] = topKItem{score: s, seq: seq, tuple: tup}
			h.fixRoot()
		}
		seq++
	}
	t.maxHeap = len(h)
	items := append(topKHeap(nil), h...)
	slices.SortFunc(items, func(a, b topKItem) int {
		if a.score != b.score {
			return compareScoreDesc(a.score, b.score)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	t.out = t.out[:0]
	for _, it := range items {
		t.out = append(t.out, it.tuple)
	}
	t.pos = 0
	return nil
}

// compareScoreDesc orders two scores best first. A NaN is unordered against
// everything, itself included, as under `>`: it compares equal.
func compareScoreDesc(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
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

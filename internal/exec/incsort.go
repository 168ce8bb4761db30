package exec

import "rankopt/internal/relation"

// sortEnt is one element as the incremental quicksort moves it: the order-
// preserving integer image of its leading key (see sortKeyBits) and its
// arrival index, which both breaks ties and locates the element.
type sortEnt struct {
	key uint64
	seq int
}

// sortInsertionMax is the segment length at or below which refine finishes a
// segment by insertion sort instead of partitioning it further.
const sortInsertionMax = 12

// incSort is the incremental quicksort (Paredes–Navarro) behind everything in
// the executor that is read in order but rarely to the end: the Sort enforcer
// and AnyK's successor buckets. ents[:sorted] is final; each refine advances
// just far enough to finalize the next position, so reading d of n elements
// costs an expected O(n + d·log d) and reading all of them performs exactly
// the partitions of an ordinary quicksort.
//
// The order is (key, then the tie keys in vals, then seq) ascending. It is
// total — seq is unique — which is what makes the finalized sequence that of
// a stable sort, whatever pivots the generator picks.
type incSort struct {
	ents []sortEnt
	// pivots is the stack of positions (descending toward the top) whose
	// element is final, with everything left of it smaller and everything
	// right of it larger. The segment still to be refined is
	// ents[sorted:top].
	pivots []int
	sorted int
	rng    uint64
	// vals holds the keys the entries do not encode, len(tieDesc) values per
	// element indexed by seq; tieDesc is those keys' direction. Both are
	// empty when (key, seq) is the whole order.
	vals    []relation.Value
	tieDesc []bool
}

// start begins a run over ents, whose first `sorted` positions the caller has
// already finalized. The generator is reseeded, so a run is reproducible (and
// the output never depends on it: the order is total).
func (q *incSort) start(ents []sortEnt, sorted int) {
	q.ents, q.pivots, q.sorted = ents, q.pivots[:0], sorted
	q.rng = 0x9E3779B97F4A7C15
}

// less is the order over entries.
func (q *incSort) less(a, b sortEnt) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return q.lessTie(a.seq, b.seq)
}

// lessTie orders two elements whose encoded keys are equal: by the remaining
// keys, then by arrival.
func (q *incSort) lessTie(a, b int) bool {
	if nk := len(q.tieDesc); nk > 0 {
		va, vb := q.vals[a*nk:a*nk+nk], q.vals[b*nk:b*nk+nk]
		for c, desc := range q.tieDesc {
			if r := compareSortKey(va[c], vb[c]); r != 0 {
				return (r < 0) != desc
			}
		}
	}
	return a < b
}

// refine finalizes at least the entry at position sorted: it partitions the
// leftmost unrefined segment, stacking pivots, until that segment is short
// enough to insertion-sort. A partition pass is bounded by the segment, so
// the context is checked once per pass over a batch or more of entries.
func (q *incSort) refine(cancel *canceller) error {
	e := q.ents
	for {
		lo, hi := q.sorted, len(e)
		top := len(q.pivots) - 1
		if top >= 0 {
			hi = q.pivots[top]
		}
		if hi-lo <= sortInsertionMax {
			for i := lo + 1; i < hi; i++ {
				x := e[i]
				j := i
				for ; j > lo && q.less(x, e[j-1]); j-- {
					e[j] = e[j-1]
				}
				e[j] = x
			}
			q.sorted = hi
			if top >= 0 {
				// The pivot bounding the segment is final too.
				q.pivots = q.pivots[:top]
				q.sorted++
			}
			return nil
		}
		if hi-lo >= DefaultBatchSize {
			if err := cancel.check(); err != nil {
				return err
			}
		}
		q.pivots = append(q.pivots, q.partition(lo, hi))
	}
}

// partition splits ents[lo:hi] around the median of three randomly placed
// entries and returns the pivot's final position. Random placement keeps the
// expected cost linear whatever order the input arrives in.
func (q *incSort) partition(lo, hi int) int {
	e := q.ents
	a, b, c := q.pick(lo, hi), q.pick(lo, hi), q.pick(lo, hi)
	if q.less(e[b], e[a]) {
		a, b = b, a
	}
	if q.less(e[c], e[b]) {
		b = c
		if q.less(e[b], e[a]) {
			b = a
		}
	}
	e[lo], e[b] = e[b], e[lo]
	pv := e[lo]
	i, j := lo+1, hi-1
	for {
		for i <= j && q.less(e[i], pv) {
			i++
		}
		for i <= j && q.less(pv, e[j]) {
			j--
		}
		if i >= j {
			break
		}
		e[i], e[j] = e[j], e[i]
		i++
		j--
	}
	e[lo], e[j] = e[j], e[lo]
	return j
}

// pick draws a position in [lo, hi) from an xorshift generator.
func (q *incSort) pick(lo, hi int) int {
	q.rng ^= q.rng << 13
	q.rng ^= q.rng >> 7
	q.rng ^= q.rng << 17
	return lo + int(q.rng%uint64(hi-lo))
}

// resized returns s with length n, reallocating (without keeping the
// contents) only when its capacity is short.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Package ranking holds the two top-k building blocks the executor shares
// outside the rank kernel: Heap, the bounded top-k buffer under exec.TopK and
// exec.ShardMerge, and Bounds, the per-source threshold state of the sharded
// coordinator merge. Fagin's TA is an executor operator (exec.TA) on the
// rank kernel, beside the rank joins.
package ranking

// Entry is one candidate in a top-k Heap: its score, a tie key, and the
// payload it stands for.
type Entry[T any] struct {
	Score float64
	// Tie orders equal scores: the larger key is the weaker entry (a later
	// arrival, a higher shard).
	Tie int64
	Val T
}

// Heap is the bounded min-heap a top-k buffer keeps its best entries in,
// ordered by (Score, -Tie): the root is the weakest kept entry, so a full
// heap turns a candidate away with one comparison. exec.TopK and
// exec.ShardMerge buffer through it. It is hand-rolled over a typed slice
// — container/heap's any-typed Push and Pop box an entry per call — and sifts
// exactly as container/heap does, so the same entries survive ties.
type Heap[T any] []Entry[T]

// Offer keeps e if the heap holds fewer than k entries, or if e outscores the
// weakest kept entry, which it then replaces. A candidate that only ties the
// weakest score is turned away. Offer reports whether the heap grew.
func (h *Heap[T]) Offer(e Entry[T], k int) (grew bool) {
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
func (h Heap[T]) SortBest() {
	for n := len(h) - 1; n > 0; n-- {
		h[0], h[n] = h[n], h[0]
		h.down(n)
	}
}

// weaker reports whether entry i loses to entry j: a lower score or, on a
// tie, the larger tie key.
func (h Heap[T]) weaker(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Tie > h[j].Tie
}

// down sifts the root down within the first n entries.
func (h Heap[T]) down(n int) {
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

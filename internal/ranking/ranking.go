// Package ranking implements Fagin's Threshold Algorithm (TA) over ranked
// lists — the paper's "top-k selection" problem class (all lists rank the
// same object set), which exec.TASelect compiles from the optimizer's
// rank-aggregation plan; the rank-join operators in package exec solve the
// "top-k join" class. Bounds is the threshold machinery TA shares with the
// sharded coordinator merge, and Heap the top-k buffer TA shares with it and
// with exec.TopK.
package ranking

import (
	"fmt"
	"sort"
)

// SortedAccess retrieves (object, score) pairs in descending score order.
type SortedAccess interface {
	// Next returns the next-ranked object; ok=false when exhausted.
	Next() (id int64, score float64, ok bool)
}

// RandomAccess probes the score of a known object.
type RandomAccess interface {
	// Probe returns the object's score in this list; ok=false if absent.
	Probe(id int64) (score float64, ok bool)
}

// Source couples both access methods over one ranked list.
type Source interface {
	SortedAccess
	RandomAccess
}

// Result is one aggregated answer.
type Result struct {
	ID int64
	// Score is the object's exact aggregate.
	Score float64
}

// Stats reports the access effort an algorithm spent — the analogue of the
// rank-join depths the paper estimates.
type Stats struct {
	// SortedAccesses counts Next calls that returned an object, per list.
	SortedAccesses []int
	// RandomAccesses counts Probe calls, per list.
	RandomAccesses []int
}

func (s Stats) total(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// TotalSorted returns the total sorted accesses across lists.
func (s Stats) TotalSorted() int { return s.total(s.SortedAccesses) }

// TotalRandom returns the total random accesses across lists.
func (s Stats) TotalRandom() int { return s.total(s.RandomAccesses) }

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
// heap turns a candidate away with one comparison. TA, exec.TopK and
// exec.ShardMerge all buffer through it. It is hand-rolled over a typed slice
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

func validate(m int, weights []float64, k int) error {
	if m == 0 {
		return fmt.Errorf("ranking: no input lists")
	}
	if len(weights) != m {
		return fmt.Errorf("ranking: %d weights for %d lists", len(weights), m)
	}
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("ranking: negative weight %v at %d breaks monotonicity", w, i)
		}
	}
	if k <= 0 {
		return fmt.Errorf("ranking: non-positive k %d", k)
	}
	return nil
}

func sortResults(rs []Result) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].ID < rs[j].ID
	})
}

// TA runs Fagin's Threshold Algorithm: round-robin sorted access on every
// list; each newly seen object is fully scored via random access to the
// other lists; terminate when the k-th best exact score is at least the
// threshold f(last1, ..., lastm). Requires both access methods on all lists.
func TA(lists []Source, weights []float64, k int) ([]Result, Stats, error) {
	m := len(lists)
	if err := validate(m, weights, k); err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{SortedAccesses: make([]int, m), RandomAccesses: make([]int, m)}
	bounds := NewBounds(m)
	seen := map[int64]bool{}
	var best Heap[int64]

	for !bounds.AllExhausted() {
		for i := 0; i < m; i++ {
			if bounds.Exhausted(i) {
				continue
			}
			id, sc, ok := lists[i].Next()
			if !ok {
				bounds.Exhaust(i)
				continue
			}
			stats.SortedAccesses[i]++
			if err := bounds.Observe(i, sc); err != nil {
				return nil, stats, err
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			total := weights[i] * sc
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				stats.RandomAccesses[j]++
				if s, ok := lists[j].Probe(id); ok {
					total += weights[j] * s
				}
			}
			best.Offer(Entry[int64]{Score: total, Val: id}, k)
		}
		// Threshold: the best possible score of any unseen object. Every
		// non-exhausted list was observed this round, so Upper is finite.
		threshold := 0.0
		for i := 0; i < m; i++ {
			if !bounds.Exhausted(i) {
				threshold += weights[i] * bounds.Upper(i)
			}
		}
		if len(best) >= k && best[0].Score >= threshold {
			break
		}
	}
	out := make([]Result, len(best))
	for i, e := range best {
		out[i] = Result{ID: e.Val, Score: e.Score}
	}
	sortResults(out)
	return out, stats, nil
}

// Package ranking implements Fagin's Threshold Algorithm (TA) over ranked
// lists — the paper's "top-k selection" problem class (all lists rank the
// same object set), which exec.TASelect compiles from the optimizer's
// rank-aggregation plan; the rank-join operators in package exec solve the
// "top-k join" class. Bounds is the threshold machinery TA shares with the
// sharded coordinator merge.
package ranking

import (
	"container/heap"
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

// resultHeap is a min-heap on score, keeping the current best-k.
type resultHeap []Result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	*h = old[:n-1]
	return r
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
	var best resultHeap

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
			if len(best) < k {
				heap.Push(&best, Result{ID: id, Score: total})
			} else if total > best[0].Score {
				best[0] = Result{ID: id, Score: total}
				heap.Fix(&best, 0)
			}
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
	out := append([]Result(nil), best...)
	sortResults(out)
	return out, stats, nil
}

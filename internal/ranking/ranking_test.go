package ranking

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHeapKeepsBestK: offering a stream with many tied scores, tie keys in
// arrival order, keeps exactly the k best by (score, earlier arrival), and
// SortBest lists them best first.
func TestHeapKeepsBestK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{0, 1, 7, 64, 500} {
		all := make([]Entry[int], 300)
		var h Heap[int]
		grew := 0
		for i := range all {
			all[i] = Entry[int]{Score: float64(rng.Intn(20)), Tie: int64(i), Val: i}
			if h.Offer(all[i], k) {
				grew++
			}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].Score != all[b].Score {
				return all[a].Score > all[b].Score
			}
			return all[a].Tie < all[b].Tie
		})
		want := all[:min(k, len(all))]
		if grew != len(want) || len(h) != len(want) {
			t.Fatalf("k=%d: heap grew %d times to %d entries, want %d", k, grew, len(h), len(want))
		}
		h.SortBest()
		for i := range want {
			if h[i] != want[i] {
				t.Fatalf("k=%d: entry %d = %+v, want %+v", k, i, h[i], want[i])
			}
		}
	}
}

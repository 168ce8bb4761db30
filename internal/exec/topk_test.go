package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

func TestTopKMatchesSort(t *testing.T) {
	rel := workload.Ranked(workload.RankedConfig{Name: "A", N: 500, Selectivity: 0.1, Seed: 71})
	score := expr.Col("A", "score")
	for _, k := range []int{1, 7, 100, 500, 2000} {
		tk := NewTopK(NewSeqScan(rel), score, k)
		got, err := Collect(tk)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CollectK(NewSortByScore(NewSeqScan(rel), score), k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i][2].AsFloat() != want[i][2].AsFloat() {
				t.Fatalf("k=%d rank %d: %v, want %v", k, i, got[i][2], want[i][2])
			}
		}
	}
}

func TestTopKStability(t *testing.T) {
	// Equal scores: earlier rows win and order among kept ties is by arrival.
	rel := makeRel("A", [][3]float64{
		{0, 0, 0.5}, {1, 0, 0.5}, {2, 0, 0.9}, {3, 0, 0.5},
	})
	tk := NewTopK(NewSeqScan(rel), expr.Col("A", "score"), 3)
	got, err := Collect(tk)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int64{got[0][0].AsInt(), got[1][0].AsInt(), got[2][0].AsInt()}
	if ids[0] != 2 || ids[1] != 0 || ids[2] != 1 {
		t.Fatalf("stable top-k order = %v", ids)
	}
}

func TestTopKSkipsNullScores(t *testing.T) {
	sch := relation.NewSchema(
		relation.Column{Table: "A", Name: "s", Kind: relation.KindFloat},
	)
	rel := relation.New("A", sch)
	rel.MustAppend(relation.Tuple{relation.Null()})
	rel.MustAppend(relation.Tuple{relation.Float(1)})
	tk := NewTopK(NewSeqScan(rel), expr.Col("A", "s"), 5)
	got, err := Collect(tk)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("NULL scores must be dropped: %v", got)
	}
}

// Property: TopK output equals the k highest scores in descending order.
func TestTopKProperty(t *testing.T) {
	f := func(seed int64, kSmall uint8) bool {
		k := int(kSmall)%30 + 1
		rel := workload.Ranked(workload.RankedConfig{Name: "A", N: 120, Selectivity: 0.2, Seed: seed})
		got, err := Collect(NewTopK(NewSeqScan(rel), expr.Col("A", "score"), k))
		if err != nil {
			return false
		}
		var all []float64
		for _, tup := range rel.Tuples() {
			all = append(all, tup[2].AsFloat())
		}
		for i := 1; i < len(all); i++ {
			for j := i; j > 0 && all[j] > all[j-1]; j-- {
				all[j], all[j-1] = all[j-1], all[j]
			}
		}
		if len(got) != k {
			return false
		}
		for i := range got {
			if math.Abs(got[i][2].AsFloat()-all[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestHeapKeepsBestK: offering a stream with many tied scores, tie keys in
// arrival order, keeps exactly the k best by (score, earlier arrival), and
// SortBest lists them best first.
func TestHeapKeepsBestK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{0, 1, 7, 64, 500} {
		all := make([]heapEntry[int], 300)
		var h topHeap[int]
		grew := 0
		for i := range all {
			all[i] = heapEntry[int]{Score: float64(rng.Intn(20)), Tie: int64(i), Val: i}
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

package ranking

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// listSource is an in-memory Source over explicit (id, score) pairs, kept in
// descending score order.
type listSource struct {
	ids    []int64
	scores []float64
	byID   map[int64]float64
	pos    int
}

func newListSource(ids []int64, scores []float64) *listSource {
	idx := make([]int, len(ids))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	s := &listSource{byID: make(map[int64]float64, len(ids))}
	for _, j := range idx {
		s.ids = append(s.ids, ids[j])
		s.scores = append(s.scores, scores[j])
		s.byID[ids[j]] = scores[j]
	}
	return s
}

func (s *listSource) Next() (int64, float64, bool) {
	if s.pos >= len(s.ids) {
		return 0, 0, false
	}
	s.pos++
	return s.ids[s.pos-1], s.scores[s.pos-1], true
}

func (s *listSource) Probe(id int64) (float64, bool) {
	sc, ok := s.byID[id]
	return sc, ok
}

// genLists builds m lists over n shared objects with independent uniform
// scores, returning sources plus the exact aggregate per object.
func genLists(m, n int, weights []float64, seed int64) ([]Source, map[int64]float64) {
	rng := rand.New(rand.NewSource(seed))
	scores := make([][]float64, m)
	for i := range scores {
		scores[i] = make([]float64, n)
		for j := range scores[i] {
			scores[i][j] = rng.Float64()
		}
	}
	ids := make([]int64, n)
	for j := range ids {
		ids[j] = int64(j)
	}
	lists := make([]Source, m)
	for i := range lists {
		lists[i] = newListSource(ids, scores[i])
	}
	exact := map[int64]float64{}
	for j := 0; j < n; j++ {
		t := 0.0
		for i := 0; i < m; i++ {
			t += weights[i] * scores[i][j]
		}
		exact[int64(j)] = t
	}
	return lists, exact
}

func exactTopK(exact map[int64]float64, k int) []Result {
	out := make([]Result, 0, len(exact))
	for id, s := range exact {
		out = append(out, Result{ID: id, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func TestTAMatchesExact(t *testing.T) {
	weights := []float64{0.5, 0.3, 0.2}
	lists, exact := genLists(3, 500, weights, 7)
	got, stats, err := TA(lists, weights, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := exactTopK(exact, 10)
	if len(got) != 10 {
		t.Fatalf("TA returned %d results", len(got))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("TA[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.TotalSorted() == 0 || stats.TotalRandom() == 0 {
		t.Error("TA stats not recorded")
	}
	// Early-out: should not read all 3*500 entries for k=10.
	if stats.TotalSorted() >= 1500 {
		t.Errorf("TA did no early-out: %d sorted accesses", stats.TotalSorted())
	}
}

func TestValidation(t *testing.T) {
	lists, _ := genLists(2, 10, []float64{1, 1}, 3)
	if _, _, err := TA(lists, []float64{1}, 5); err == nil {
		t.Error("weight arity must be validated")
	}
	if _, _, err := TA(lists, []float64{1, -1}, 5); err == nil {
		t.Error("negative weights must be rejected")
	}
	if _, _, err := TA(lists, []float64{1, 1}, 0); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, _, err := TA(nil, nil, 5); err == nil {
		t.Error("empty lists must be rejected")
	}
}

func TestKLargerThanObjects(t *testing.T) {
	weights := []float64{1, 1}
	lists, exact := genLists(2, 5, weights, 17)
	got, _, err := TA(lists, weights, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("TA with k>n returned %d", len(got))
	}
	want := exactTopK(exact, 5)
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("TA order wrong with k>n")
		}
	}
}

// Property: TA agrees with brute force across random instances.
func TestTAProperty(t *testing.T) {
	f := func(seed int64) bool {
		weights := []float64{0.3, 0.7}
		lists, exact := genLists(2, 120, weights, seed)
		want := exactTopK(exact, 6)
		got, _, err := TA(lists, weights, 6)
		if err != nil || len(got) != 6 {
			return false
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

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

func BenchmarkTA(b *testing.B) {
	weights := []float64{0.5, 0.3, 0.2}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lists, _ := genLists(3, 2000, weights, int64(i))
		b.StartTimer()
		if _, _, err := TA(lists, weights, 10); err != nil {
			b.Fatal(err)
		}
	}
}

package exec

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// buildRankedInput generates n tuples (key, score) with keys cycling mod
// `mod` and scores strictly descending, the input contract of every rank
// operator here.
func buildRankedInput(n, mod int, seed int64) (*relation.Schema, []relation.Tuple) {
	sch := relation.NewSchema(
		relation.Column{Table: "A", Name: "key", Kind: relation.KindInt},
		relation.Column{Table: "A", Name: "score", Kind: relation.KindFloat},
	)
	tuples := make([]relation.Tuple, n)
	for i := 0; i < n; i++ {
		tuples[i] = relation.Tuple{
			relation.Int(int64((i*7 + int(seed)) % mod)),
			relation.Float(float64(n - i)),
		}
	}
	return sch, tuples
}

// TestHRJNAllocsPerTuple pins the steady-state allocation rate of the HRJN
// hot path. With container/heap boxing every queued item this workload cost
// 13.5 allocs per emitted tuple; with join keys boxed into map[any][]scored
// and one slice per key, 10.3; on the key table and the chained row store,
// ~2.7; with candidates queued as row references and a row built only on
// release, ~1.7; with the hash tables taken from hashStorePool instead of
// allocated per run, ~1.3 — the emitted tuple itself plus the ranking queue's
// growth. The bound sits just above that, so a boxed key, a per-key slice, a
// row built per queued candidate or a hash table allocated per run fails
// loudly.
func TestHRJNAllocsPerTuple(t *testing.T) {
	lsch, ltups := buildRankedInput(4000, 200, 1)
	rsch, rtups := buildRankedInput(4000, 200, 3)
	score, key := expr.Col("A", "score"), expr.Col("A", "key")
	const k = 100
	var emitted int
	allocs := testing.AllocsPerRun(5, func() {
		j := NewHRJN(FromTuples(lsch, ltups), FromTuples(rsch, rtups),
			score, score, key, key, nil)
		out, err := CollectK(j, k)
		if err != nil {
			t.Fatal(err)
		}
		emitted = len(out)
	})
	if emitted != k {
		t.Fatalf("emitted %d tuples, want %d", emitted, k)
	}
	perTuple := allocs / float64(emitted)
	t.Logf("%.1f allocs/run, %.2f allocs/emitted tuple", allocs, perTuple)
	if raceBuild {
		return // the pool drops stores at random
	}
	if perTuple > 1.5 {
		t.Errorf("hot path allocates %.2f/tuple, budget 1.5 (with boxed keys it was 10.3)", perTuple)
	}
}

// TestTopKAllocs pins TopK's allocation count on a shuffled input (shuffled
// so the bounded heap actually churns: a descending input never replaces the
// root). Before the rewrite the same workload cost ~2 allocations per heap
// operation through container/heap's any-boxing — hundreds per run; now the
// cost is the heap backing array, the sorted copy, and the output slice,
// independent of input size.
func TestTopKAllocs(t *testing.T) {
	sch, tups := buildRankedInput(4000, 200, 1)
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(tups), func(i, j int) { tups[i], tups[j] = tups[j], tups[i] })
	const k = 50
	var emitted int
	allocs := testing.AllocsPerRun(5, func() {
		tk := NewTopK(FromTuples(sch, tups), expr.Col("A", "score"), k)
		out, err := Collect(tk)
		if err != nil {
			t.Fatal(err)
		}
		emitted = len(out)
	})
	if emitted != k {
		t.Fatalf("emitted %d tuples, want %d", emitted, k)
	}
	t.Logf("TopK: %.1f allocs/run over %d inputs", allocs, len(tups))
	if allocs > 40 {
		t.Errorf("TopK allocates %.1f/run, budget 40 (pre-optimization was ~80 on an easier input)", allocs)
	}
}

// TestScoreQueueReleasesPoppedTuples verifies the GC-retention fix: popping
// must zero the vacated backing slot so emitted tuples are not pinned by the
// queue's capacity for the rest of the operator's life.
func TestScoreQueueReleasesPoppedTuples(t *testing.T) {
	var q scoreQueue[relation.Tuple]
	for i := 0; i < 8; i++ {
		q.push(float64(i), relation.Tuple{relation.Int(int64(i))})
	}
	for i := 0; i < 3; i++ {
		q.pop()
	}
	// The vacated slots sit between len and the original length.
	s := q.items[:8]
	for i := 5; i < 8; i++ {
		if s[i].v != nil {
			t.Errorf("popped slot %d still references its tuple", i)
		}
	}
}

// TestAnyKBuildAllocs pins the any-k build: on recycled arrays (Close hands
// them to the pool and the next Open, of this or any other operator, takes
// them back), Open plus the first result allocates a constant handful of
// objects — bound evaluators, the output tuple, the odd array the pool did
// not hand back — whatever the input size. The boxed-key build allocated
// about five objects per input tuple. Over stored-table scans the levels read
// the relations' column images, built by the warm-up run; binding them goes
// into the pooled levels, so the image path may allocate no more than the
// lent-slice path.
func TestAnyKBuildAllocs(t *testing.T) {
	for _, n := range []int{2000, 20000} {
		levels := wideLevels(n, 4)
		levels = append(levels, levels[0])
		measure := func(j *AnyK) float64 {
			run := func() {
				if err := j.Open(context.Background()); err != nil {
					t.Fatal(err)
				}
				if _, ok, err := j.Next(); err != nil || !ok {
					t.Fatalf("first result: ok=%v err=%v", ok, err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pool (and the images) at this size
			return testing.AllocsPerRun(5, run)
		}
		lent := measure(pathAnyK(t, levels, true))
		t.Logf("n=%d: %.0f allocs per build + first result", n, lent)
		if raceBuild {
			continue // the pool drops arrays at random: neither the bound nor the comparison holds
		}
		if lent > 64 {
			t.Errorf("n=%d: build + first result allocates %.0f objects, want a constant <= 64", n, lent)
		}
		// The same with the optimizer's one-term ScoreSum scores, over lent
		// slices and over stored scans.
		lentIns := make([]Operator, len(levels))
		for i := range levels {
			lentIns[i] = FromTuples(pathSchemas[i], levels[i])
		}
		sum := measure(anyKOver(t, lentIns, sumScores(len(levels))))
		stored := measure(storedAnyK(t, levels))
		t.Logf("n=%d, ScoreSum scores: %.0f allocs over lent slices, %.0f over stored scans", n, sum, stored)
		if stored > sum {
			t.Errorf("n=%d: the image path allocates %.0f objects, the lent-slice path %.0f", n, stored, sum)
		}
	}
}

// TestRankAssignLimitAllocBytes pins the demand-sized output path of a top-k
// request's root: Limit(20) over RankAssign carves twenty rows, so it must
// allocate on the order of twenty rows — not a 164 KB arena chunk and two
// full-size batches.
func TestRankAssignLimitAllocBytes(t *testing.T) {
	sch, tups := buildRankedInput(4000, 200, 1)
	run := func() {
		op := NewLimit(NewRankAssign(FromTuples(sch, tups), expr.Col("A", "score")), 20)
		out, err := Collect(op)
		if err != nil || len(out) != 20 {
			t.Fatalf("%d rows, %v", len(out), err)
		}
	}
	run()
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("Limit(20) over RankAssign: %d bytes per run", perRun)
	if perRun >= 16<<10 {
		t.Errorf("Limit(20) over RankAssign allocates %d bytes per run, want < 16 KB", perRun)
	}
}

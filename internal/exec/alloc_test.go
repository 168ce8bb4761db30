package exec

import (
	"math/rand"
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
// hot path, through the binary and the m-way constructor alike (one
// implementation, two ways in). Before the pooled/hand-rolled-heap rewrite
// this workload cost 13.5 allocs per emitted tuple (container/heap boxing
// every queued item, a fresh output tuple per candidate, queue slots never
// zeroed); after it, ~10.3. The bound sits between the two so any regression
// back toward per-item boxing fails loudly while normal jitter does not.
func TestHRJNAllocsPerTuple(t *testing.T) {
	lsch, ltups := buildRankedInput(4000, 200, 1)
	rsch, rtups := buildRankedInput(4000, 200, 3)
	score, key := expr.Col("A", "score"), expr.Col("A", "key")
	builds := map[string]func() *HRJN{
		"NewHRJN": func() *HRJN {
			return NewHRJN(FromTuples(lsch, ltups), FromTuples(rsch, rtups),
				score, score, key, key, nil)
		},
		"NewMultiHRJN": func() *HRJN {
			j, err := NewMultiHRJN(
				[]Operator{FromTuples(lsch, ltups), FromTuples(rsch, rtups)},
				[]expr.Expr{score, score}, []expr.Expr{key, key})
			if err != nil {
				t.Fatal(err)
			}
			return j
		},
	}
	const k = 100
	for name, build := range builds {
		var emitted int
		allocs := testing.AllocsPerRun(5, func() {
			j := build()
			j.SizeHints[0], j.SizeHints[1], j.QueueHint = 400, 400, 1024
			out, err := CollectK(j, k)
			if err != nil {
				t.Fatal(err)
			}
			emitted = len(out)
		})
		if emitted != k {
			t.Fatalf("%s: emitted %d tuples, want %d", name, emitted, k)
		}
		perTuple := allocs / float64(emitted)
		t.Logf("%s: %.1f allocs/run, %.2f allocs/emitted tuple", name, allocs, perTuple)
		if perTuple > 12.0 {
			t.Errorf("%s hot path allocates %.2f/tuple, budget 12.0 (pre-optimization was 13.5)", name, perTuple)
		}
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

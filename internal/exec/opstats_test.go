package exec

import (
	"math/rand"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// scoredKeyed builds a ranked input with explicit descending scores and
// aligned join keys under the given table name.
func scoredKeyed(table string, scores []float64, keys []int64) (*relation.Schema, []relation.Tuple) {
	sch := relation.NewSchema(
		relation.Column{Table: table, Name: "key", Kind: relation.KindInt},
		relation.Column{Table: table, Name: "score", Kind: relation.KindFloat},
	)
	tuples := make([]relation.Tuple, len(scores))
	for i := range scores {
		tuples[i] = relation.Tuple{relation.Int(keys[i]), relation.Float(scores[i])}
	}
	return sch, tuples
}

// The Analyzed collector must count tuples on every operator, sample Next
// wall time at the documented stride, and surface the wrapped rank-join's
// internal gauges (depths, queue high-water mark).
func TestAnalyzedCollectsOperatorStats(t *testing.T) {
	lsch, ltups := buildRankedInput(4000, 200, 1)
	rsch, rtups := buildRankedInput(4000, 200, 3)
	l := Analyze(FromTuples(lsch, ltups))
	r := Analyze(FromTuples(rsch, rtups))
	j := NewHRJN(l, r,
		expr.Col("A", "score"), expr.Col("A", "score"),
		expr.Col("A", "key"), expr.Col("A", "key"), nil)
	a := Analyze(j)
	const k = 100
	out, err := CollectK(a, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != k {
		t.Fatalf("emitted %d tuples, want %d", len(out), k)
	}

	st := a.ExecStats()
	if st.Opens != 1 {
		t.Errorf("Opens = %d, want 1", st.Opens)
	}
	if st.TuplesOut != k {
		t.Errorf("TuplesOut = %d, want %d", st.TuplesOut, k)
	}
	if st.NextCalls != k {
		t.Errorf("NextCalls = %d, want %d (CollectK pulls exactly k)", st.NextCalls, k)
	}
	if want := st.NextCalls / nextSamplePeriod; st.SampledNexts != want {
		t.Errorf("SampledNexts = %d, want %d (1-in-%d sampling)", st.SampledNexts, want, nextSamplePeriod)
	}
	if st.EstNextNanos() < st.NextNanos {
		t.Errorf("EstNextNanos %d < sampled NextNanos %d", st.EstNextNanos(), st.NextNanos)
	}

	// The gauges must match the wrapped operator's own stats, and each
	// input's depth must equal the tuples pulled through its child collector.
	js := j.Stats()
	if st.LeftDepth != int64(js.LeftDepth) || st.RightDepth != int64(js.RightDepth) {
		t.Errorf("collector depths (%d,%d) != rank-join stats (%d,%d)",
			st.LeftDepth, st.RightDepth, js.LeftDepth, js.RightDepth)
	}
	if got := l.ExecStats().TuplesOut; got != st.LeftDepth {
		t.Errorf("left child TuplesOut = %d, want depth %d", got, st.LeftDepth)
	}
	if got := r.ExecStats().TuplesOut; got != st.RightDepth {
		t.Errorf("right child TuplesOut = %d, want depth %d", got, st.RightDepth)
	}
	if st.MaxQueue <= 0 {
		t.Errorf("MaxQueue = %d, want > 0", st.MaxQueue)
	}
	if js.Emitted != k {
		t.Errorf("Emitted = %d, want %d (one released row per tuple out)", js.Emitted, k)
	}
}

// TopK must report its bounded-heap high-water mark through the collector.
func TestAnalyzedTopKHeapGauge(t *testing.T) {
	sch, tups := buildRankedInput(500, 50, 1)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(tups), func(i, j int) { tups[i], tups[j] = tups[j], tups[i] })
	const k = 20
	a := Analyze(NewTopK(FromTuples(sch, tups), expr.Col("A", "score"), k))
	out, err := Collect(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != k {
		t.Fatalf("emitted %d, want %d", len(out), k)
	}
	st := a.ExecStats()
	if st.MaxHeap != k {
		t.Errorf("MaxHeap = %d, want %d", st.MaxHeap, k)
	}
	if st.TuplesOut != k {
		t.Errorf("TuplesOut = %d, want %d", st.TuplesOut, k)
	}
}

// Stats collection must not add per-tuple allocations to the HRJN hot path:
// the analyzed run obeys the same AllocsPerRun budget the bare operator is
// pinned to in alloc_test.go.
func TestAnalyzedHRJNAllocsPerTuple(t *testing.T) {
	lsch, ltups := buildRankedInput(4000, 200, 1)
	rsch, rtups := buildRankedInput(4000, 200, 3)
	const k = 100
	var emitted int
	allocs := testing.AllocsPerRun(5, func() {
		j := NewHRJN(
			FromTuples(lsch, ltups), FromTuples(rsch, rtups),
			expr.Col("A", "score"), expr.Col("A", "score"),
			expr.Col("A", "key"), expr.Col("A", "key"), nil)
		out, err := CollectK(Analyze(j), k)
		if err != nil {
			t.Fatal(err)
		}
		emitted = len(out)
	})
	if emitted != k {
		t.Fatalf("emitted %d tuples, want %d", emitted, k)
	}
	perTuple := allocs / float64(emitted)
	t.Logf("analyzed HRJN: %.1f allocs/run, %.2f allocs/emitted tuple", allocs, perTuple)
	if raceBuild {
		return // the pool drops stores at random
	}
	if perTuple > 1.5 {
		t.Errorf("analyzed HRJN hot path allocates %.2f/tuple, budget 1.5 (same as bare operator)", perTuple)
	}
}

// Likewise for TopK: wrapping with the collector must stay inside the bare
// operator's per-run allocation budget (the wrapper itself is one struct).
func TestAnalyzedTopKAllocs(t *testing.T) {
	sch, tups := buildRankedInput(4000, 200, 1)
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(tups), func(i, j int) { tups[i], tups[j] = tups[j], tups[i] })
	const k = 50
	var emitted int
	allocs := testing.AllocsPerRun(5, func() {
		tk := NewTopK(FromTuples(sch, tups), expr.Col("A", "score"), k)
		out, err := Collect(Analyze(tk))
		if err != nil {
			t.Fatal(err)
		}
		emitted = len(out)
	})
	if emitted != k {
		t.Fatalf("emitted %d tuples, want %d", emitted, k)
	}
	t.Logf("analyzed TopK: %.1f allocs/run over %d inputs", allocs, len(tups))
	if allocs > 40 {
		t.Errorf("analyzed TopK allocates %.1f/run, budget 40 (same as bare operator)", allocs)
	}
}

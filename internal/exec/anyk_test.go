package exec

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sort"
	"testing"
	"time"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// anykFixture builds m ranked relations joined in a path on their shared key
// column and the AnyK operator over *unsorted* scans — the operator's input
// contract, unlike the HRJN family's descending-score requirement.
func anykFixture(t *testing.T, m, n int, sel float64, seed int64) ([]*relation.Relation, *AnyK) {
	t.Helper()
	rels := make([]*relation.Relation, m)
	inputs := make([]Operator, m)
	scores := make([]expr.Expr, m)
	lkeys := make([]expr.Expr, m-1)
	rkeys := make([]expr.Expr, m-1)
	for i := 0; i < m; i++ {
		name := string(rune('A' + i))
		rels[i] = workload.Ranked(workload.RankedConfig{
			Name: name, N: n, Selectivity: sel, Seed: seed + int64(i),
		})
		inputs[i] = NewSeqScan(rels[i])
		scores[i] = expr.Col(name, "score")
		if i < m-1 {
			lkeys[i] = expr.Col(name, "key")
		}
		if i > 0 {
			rkeys[i-1] = expr.Col(name, "key")
		}
	}
	j, err := NewAnyK(inputs, scores, lkeys, rkeys)
	if err != nil {
		t.Fatal(err)
	}
	return rels, j
}

// refMultiScores brute-forces the combined scores of the m-way equi-join on
// key, best first. keep, when non-nil, is the residual: it sees one tuple per
// relation and rejects combinations.
func refMultiScores(rels []*relation.Relation, keep func(parts []relation.Tuple) bool) []float64 {
	// Bucket by key per relation.
	buckets := make([]map[int64][]relation.Tuple, len(rels))
	for i, r := range rels {
		buckets[i] = map[int64][]relation.Tuple{}
		for _, tup := range r.Tuples() {
			key := tup[1].AsInt()
			buckets[i][key] = append(buckets[i][key], tup)
		}
	}
	var scores []float64
	parts := make([]relation.Tuple, len(rels))
	var cross func(key int64, slot int, acc float64)
	cross = func(key int64, slot int, acc float64) {
		if slot == len(rels) {
			if keep == nil || keep(parts) {
				scores = append(scores, acc)
			}
			return
		}
		for _, tup := range buckets[slot][key] {
			parts[slot] = tup
			cross(key, slot+1, acc+tup[2].AsFloat())
		}
	}
	for key := range buckets[0] {
		cross(key, 0, 0)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	return scores
}

// refMultiTopK is the top-k prefix of refMultiScores without a residual.
func refMultiTopK(rels []*relation.Relation, k int) []float64 {
	scores := refMultiScores(rels, nil)
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

func combinedScoreM(tup relation.Tuple, m int) float64 {
	// Each input contributes 3 columns (id, key, score); score at offset 2.
	total := 0.0
	for i := 0; i < m; i++ {
		total += tup[i*3+2].AsFloat()
	}
	return total
}

func TestAnyKTopKMatchesReference(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		rels, j := anykFixture(t, m, 250, 0.05, 1100+int64(m))
		k := 12
		got, err := CollectK(j, k)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		want := refMultiTopK(rels, k)
		if len(got) != len(want) {
			t.Fatalf("m=%d: %d results, want %d", m, len(got), len(want))
		}
		for i := range want {
			if math.Abs(combinedScoreM(got[i], m)-want[i]) > 1e-9 {
				t.Fatalf("m=%d rank %d: %v, want %v", m, i, combinedScoreM(got[i], m), want[i])
			}
		}
	}
}

// Two runs over the same inputs must emit byte-identical tuple sequences:
// the successor partition plus FIFO tie-breaking leaves no nondeterminism.
func TestAnyKDeterministicTieBreak(t *testing.T) {
	run := func() []relation.Tuple {
		// Heavy ties: every score is drawn from a 3-value set.
		a := makeRel("A", [][3]float64{{0, 1, 0.5}, {1, 1, 0.5}, {2, 2, 0.7}, {3, 2, 0.3}})
		b := makeRel("B", [][3]float64{{0, 1, 0.5}, {1, 1, 0.7}, {2, 2, 0.5}, {3, 2, 0.5}})
		c := makeRel("C", [][3]float64{{0, 1, 0.3}, {1, 2, 0.5}, {2, 2, 0.5}})
		j, err := NewAnyK(
			[]Operator{NewSeqScan(a), NewSeqScan(b), NewSeqScan(c)},
			[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score"), expr.Col("C", "score")},
			[]expr.Expr{expr.Col("A", "key"), expr.Col("B", "key")},
			[]expr.Expr{expr.Col("B", "key"), expr.Col("C", "key")})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("runs disagree on cardinality: %d vs %d", len(first), len(second))
	}
	for i := range first {
		for c := range first[i] {
			if first[i][c] != second[i][c] {
				t.Fatalf("rank %d col %d differs across runs: %v vs %v", i, c, first[i][c], second[i][c])
			}
		}
	}
}

func TestAnyKValidation(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 1, 0.5}})
	score := expr.Col("A", "score")
	key := expr.Col("A", "key")
	if _, err := NewAnyK([]Operator{NewSeqScan(rel)},
		[]expr.Expr{score}, nil, nil); err == nil {
		t.Error("single input must be rejected")
	}
	if _, err := NewAnyK(
		[]Operator{NewSeqScan(rel), NewSeqScan(rel)},
		[]expr.Expr{score},
		[]expr.Expr{key}, []expr.Expr{key}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	wide := make([]Operator, maxJoinWidth+1)
	scores := make([]expr.Expr, maxJoinWidth+1)
	keys := make([]expr.Expr, maxJoinWidth)
	for i := range wide {
		wide[i] = NewSeqScan(rel)
		scores[i] = score
	}
	for i := range keys {
		keys[i] = key
	}
	if _, err := NewAnyK(wide, scores, keys, keys); err == nil {
		t.Errorf("width beyond %d must be rejected", maxJoinWidth)
	}
}

func TestAnyKEmptyInput(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, 0.5}})
	b := makeRel("B", nil)
	j, err := NewAnyK(
		[]Operator{NewSeqScan(a), NewSeqScan(b)},
		[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score")},
		[]expr.Expr{expr.Col("A", "key")},
		[]expr.Expr{expr.Col("B", "key")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(j)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input join = %v, %v", got, err)
	}
}

func TestAnyKNaNScoreRejected(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, math.NaN()}, {1, 1, 0.5}})
	b := makeRel("B", [][3]float64{{0, 1, 0.5}})
	j, err := NewAnyK(
		[]Operator{NewSeqScan(a), NewSeqScan(b)},
		[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score")},
		[]expr.Expr{expr.Col("A", "key")},
		[]expr.Expr{expr.Col("B", "key")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(j); err == nil {
		t.Fatal("NaN score must fail the build")
	}
}

// Reopening after a full drain must replay the identical result stream.
func TestAnyKReopen(t *testing.T) {
	_, j := anykFixture(t, 3, 120, 0.1, 1200)
	first, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("reopen replay: %d then %d results", len(first), len(second))
	}
	for i := range first {
		if math.Abs(combinedScoreM(first[i], 3)-combinedScoreM(second[i], 3)) > 1e-9 {
			t.Fatalf("rank %d differs across reopen", i)
		}
	}
}

func TestAnyKStatsAndGauges(t *testing.T) {
	_, j := anykFixture(t, 3, 150, 0.08, 1250)
	out, err := CollectK(j, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Re-open to inspect gauges before Close wipes state.
	if err := j.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Next(); err != nil {
		t.Fatal(err)
	}
	depths := j.Depths()
	if len(depths) != 3 {
		t.Fatalf("Depths len = %d", len(depths))
	}
	for i, d := range depths {
		// The build drains every input fully.
		if d != 150 {
			t.Fatalf("input %d depth %d, want 150", i, d)
		}
	}
	if j.Stats().MaxQueue == 0 {
		t.Error("queue high-water not recorded")
	}
	st := j.Stats()
	if st.LeftDepth != depths[0] || st.RightDepth != depths[2] || st.Emitted != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_ = out
}

// Cancellation mid-build surfaces the typed error within the polling cadence,
// leaves the budget fully released after Close, and leaks no goroutines (the
// operator is single-threaded; the check guards against a future async build).
func TestAnyKQueryCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
	_, j := anykFixture(t, 3, 4000, 0.02, 1300)
	j.Budget = b
	ctx, cancel := context.WithCancel(context.Background())
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	var err error
	for i := 0; i < 2*cancelCheckPeriod; i++ {
		if _, _, err = j.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("cancellation not observed: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Buffered() != 0 {
		t.Fatalf("budget not released after cancel+Close: %d still charged", b.Buffered())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// Cancelling after results have flowed must also surface during enumeration,
// not only during the build.
func TestAnyKCancelMidEnumeration(t *testing.T) {
	_, j := anykFixture(t, 3, 2000, 0.05, 1350)
	ctx, cancel := context.WithCancel(context.Background())
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("warm-up pull %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	var err error
	for i := 0; i < 2*cancelCheckPeriod; i++ {
		if _, _, err = j.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("cancellation not observed within polling cadence: %v", err)
	}
}

func TestAnyKBudgetExceeded(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 10})
	_, j := anykFixture(t, 3, 4000, 0.02, 1400)
	j.Budget = b
	_, err := Collect(j)
	if err == nil {
		t.Fatal("tiny buffer budget must fail the build")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if b.Buffered() != 0 {
		t.Fatalf("budget not released after failed run: %d still charged", b.Buffered())
	}
}

func TestAnyKDepthExceeded(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxDepthPerInput: 7})
	_, j := anykFixture(t, 3, 4000, 0.02, 1450)
	j.Budget = b
	_, err := Collect(j)
	if err == nil {
		t.Fatal("tiny depth cap must fail the drain")
	}
	if !errors.Is(err, ErrDepthExceeded) {
		t.Fatalf("want ErrDepthExceeded, got %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("ErrDepthExceeded must wrap ErrBudgetExceeded, got %v", err)
	}
}

// TestAnyKPopAllocs pins the enumeration hot path: after the build, each pop
// costs the output tuple plus amortized heap growth — the inline index
// vectors mean successor pushes allocate nothing. Budget 3 per pop leaves
// room for growth spikes while catching any regression to boxed solutions.
func TestAnyKPopAllocs(t *testing.T) {
	_, j := anykFixture(t, 3, 1500, 0.05, 1500)
	if err := j.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// First Next triggers the build; a few more warm the queue.
	for i := 0; i < 32; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("warm-up pull %d: ok=%v err=%v", i, ok, err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("pop failed: ok=%v err=%v", ok, err)
		}
	})
	t.Logf("AnyK: %.2f allocs per pop", allocs)
	if allocs > 3.0 {
		t.Errorf("AnyK pop hot path allocates %.2f/pop, budget 3.0", allocs)
	}
}

package exec

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// multiFixture builds m ranked relations and the operator inputs.
func multiFixture(t *testing.T, m, n int, sel float64, seed int64) ([]*relation.Relation, *HRJN) {
	t.Helper()
	rels := make([]*relation.Relation, m)
	inputs := make([]Operator, m)
	scores := make([]expr.Expr, m)
	keys := make([]expr.Expr, m)
	for i := 0; i < m; i++ {
		name := string(rune('A' + i))
		rels[i] = workload.Ranked(workload.RankedConfig{
			Name: name, N: n, Selectivity: sel, Seed: seed + int64(i),
		})
		inputs[i] = rankedScan(rels[i])
		scores[i] = expr.Col(name, "score")
		keys[i] = expr.Col(name, "key")
	}
	j, err := NewMultiHRJN(inputs, scores, keys)
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

func TestMultiHRJNTopKMatchesReference(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		rels, j := multiFixture(t, m, 250, 0.05, 900+int64(m))
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

func TestMultiHRJNOutputOrdered(t *testing.T) {
	_, j := multiFixture(t, 3, 300, 0.05, 950)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, tup := range got {
		s := combinedScoreM(tup, 3)
		if s > prev+1e-9 {
			t.Fatal("MultiHRJN output not descending")
		}
		prev = s
	}
}

func TestMultiHRJNEarlyOut(t *testing.T) {
	_, j := multiFixture(t, 3, 4000, 0.02, 970)
	if _, err := CollectK(j, 5); err != nil {
		t.Fatal(err)
	}
	for i, d := range j.Depths() {
		if d == 0 || d >= 4000 {
			t.Fatalf("input %d depth %d: no early-out", i, d)
		}
	}
	if j.Stats().MaxQueue == 0 {
		t.Error("queue high-water not recorded")
	}
}

func TestMultiHRJNAgreesWithBinaryTree(t *testing.T) {
	rels, j := multiFixture(t, 3, 300, 0.05, 990)
	k := 15
	got, err := CollectK(j, k)
	if err != nil {
		t.Fatal(err)
	}
	// Binary composition: HRJN(HRJN(A,B),C).
	ab := NewHRJN(rankedScan(rels[0]), rankedScan(rels[1]),
		expr.Col("A", "score"), expr.Col("B", "score"),
		expr.Col("A", "key"), expr.Col("B", "key"), nil)
	top := NewHRJN(ab, rankedScan(rels[2]),
		expr.Sum(
			expr.ScoreTerm{Weight: 1, E: expr.Col("A", "score")},
			expr.ScoreTerm{Weight: 1, E: expr.Col("B", "score")},
		),
		expr.Col("C", "score"),
		expr.Col("A", "key"), expr.Col("C", "key"), nil)
	want, err := CollectK(top, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("m-way %d results, binary %d", len(got), len(want))
	}
	for i := range want {
		ws := want[i][2].AsFloat() + want[i][5].AsFloat() + want[i][8].AsFloat()
		if math.Abs(combinedScoreM(got[i], 3)-ws) > 1e-9 {
			t.Fatalf("rank %d: m-way %v vs binary %v", i, combinedScoreM(got[i], 3), ws)
		}
	}

	// One implementation, two ways in: over the same two inputs the binary
	// and the m-way constructor must behave identically, tuple for tuple.
	bin := NewHRJN(rankedScan(rels[0]), rankedScan(rels[1]),
		expr.Col("A", "score"), expr.Col("B", "score"),
		expr.Col("A", "key"), expr.Col("B", "key"), nil)
	mw, err := NewMultiHRJN(
		[]Operator{rankedScan(rels[0]), rankedScan(rels[1])},
		[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score")},
		[]expr.Expr{expr.Col("A", "key"), expr.Col("B", "key")})
	if err != nil {
		t.Fatal(err)
	}
	binOut, err := CollectK(bin, k)
	if err != nil {
		t.Fatal(err)
	}
	mwOut, err := CollectK(mw, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(binOut, mwOut) {
		t.Errorf("NewHRJN and NewMultiHRJN disagree over the same inputs:\n%v\n%v", binOut, mwOut)
	}
	if bin.Stats() != mw.Stats() {
		t.Errorf("Stats differ: binary %+v, m-way %+v", bin.Stats(), mw.Stats())
	}
}

func TestMultiHRJNValidation(t *testing.T) {
	rel := workload.Ranked(workload.RankedConfig{Name: "A", N: 10, Selectivity: 0.5, Seed: 1})
	if _, err := NewMultiHRJN([]Operator{rankedScan(rel)},
		[]expr.Expr{expr.Col("A", "score")}, []expr.Expr{expr.Col("A", "key")}); err == nil {
		t.Error("single input must be rejected")
	}
	if _, err := NewMultiHRJN(
		[]Operator{rankedScan(rel), rankedScan(rel)},
		[]expr.Expr{expr.Col("A", "score")},
		[]expr.Expr{expr.Col("A", "key"), expr.Col("A", "key")}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	// A queued combination holds one row index per input in a fixed array.
	wide := make([]Operator, maxJoinWidth+1)
	scores := make([]expr.Expr, len(wide))
	keys := make([]expr.Expr, len(wide))
	for i := range wide {
		wide[i], scores[i], keys[i] = rankedScan(rel), expr.Col("A", "score"), expr.Col("A", "key")
	}
	if _, err := NewMultiHRJN(wide[:maxJoinWidth], scores[:maxJoinWidth], keys[:maxJoinWidth]); err != nil {
		t.Errorf("width %d must be accepted: %v", maxJoinWidth, err)
	}
	if _, err := NewMultiHRJN(wide, scores, keys); err == nil {
		t.Errorf("width beyond %d must be rejected", maxJoinWidth)
	}
}

func TestMultiHRJNContractViolation(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, 0.1}, {1, 1, 0.9}}) // ascending
	b := makeRel("B", [][3]float64{{0, 1, 0.5}})
	j, err := NewMultiHRJN(
		[]Operator{NewSeqScan(a), rankedScan(b)},
		[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score")},
		[]expr.Expr{expr.Col("A", "key"), expr.Col("B", "key")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(j); err == nil {
		t.Fatal("unordered input must be detected")
	}
}

func TestMultiHRJNEmptyInput(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, 0.5}})
	b := makeRel("B", nil)
	j, err := NewMultiHRJN(
		[]Operator{rankedScan(a), rankedScan(b)},
		[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score")},
		[]expr.Expr{expr.Col("A", "key"), expr.Col("B", "key")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(j)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input join = %v, %v", got, err)
	}
}

// TestDeadRankJoinStops: once one input is exhausted without ever buffering
// a tuple no result can form, so the join must report exhaustion instead of
// reading the other inputs out. Before the fix each of these read all 50 000
// tuples of the big input to emit nothing.
func TestDeadRankJoinStops(t *testing.T) {
	const n = 50000
	empty := makeRel("E", nil)
	sch, tups := buildRankedInput(n, 100, 1)
	eScore, eKey := expr.Col("E", "score"), expr.Col("E", "key")
	score, key := expr.Col("A", "score"), expr.Col("A", "key")
	multi := func(ins []Operator, scores, keys []expr.Expr) Operator {
		j, err := NewMultiHRJN(ins, scores, keys)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	cases := []struct {
		name  string
		build func(big Operator) Operator
	}{
		{"binary", func(big Operator) Operator {
			return NewHRJN(NewSeqScan(empty), big, eScore, score, eKey, key, nil)
		}},
		{"m-way-2", func(big Operator) Operator {
			return multi([]Operator{NewSeqScan(empty), big},
				[]expr.Expr{eScore, score}, []expr.Expr{eKey, key})
		}},
		{"m-way-3", func(big Operator) Operator {
			return multi([]Operator{big, NewSeqScan(empty), FromTuples(sch, tups)},
				[]expr.Expr{score, eScore, score}, []expr.Expr{key, eKey, key})
		}},
		{"nrjn-empty-inner", func(big Operator) Operator {
			return NewNRJN(big, NewSeqScan(empty), score, eScore, expr.Bin(expr.OpEq, key, eKey))
		}},
	}
	for _, tc := range cases {
		big, bigN := counted(FromTuples(sch, tups))
		got, err := Collect(tc.build(big))
		if err != nil || len(got) != 0 {
			t.Fatalf("%s: dead join = %d tuples, %v", tc.name, len(got), err)
		}
		if bigN() > 1 {
			t.Errorf("%s: read %d tuples of the live input after the join was dead, want <= 1", tc.name, bigN())
		}
	}
}

package exec

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// rankedScan returns an operator over rel sorted descending by score —
// the sorted access path a rank-join input requires.
func rankedScan(rel *relation.Relation) Operator {
	tuples := slices.Clone(rel.Tuples())
	slices.SortStableFunc(tuples, func(a, b relation.Tuple) int {
		return cmp.Compare(b[2].AsFloat(), a[2].AsFloat())
	})
	return FromTuples(rel.Schema(), tuples)
}

// topKReference computes the top-k join results the slow way: full join,
// sort by combined score descending, cut at k. Returns the scores (the
// tuples themselves can tie arbitrarily).
func topKReference(a, b *relation.Relation, k int) []float64 {
	var scores []float64
	for _, lt := range a.Tuples() {
		for _, rt := range b.Tuples() {
			if lt[1].Equal(rt[1]) {
				scores = append(scores, lt[2].AsFloat()+rt[2].AsFloat())
			}
		}
	}
	// Sort descending.
	for i := 1; i < len(scores); i++ {
		for j := i; j > 0 && scores[j] > scores[j-1]; j-- {
			scores[j], scores[j-1] = scores[j-1], scores[j]
		}
	}
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

func combinedScores(t *testing.T, tuples []relation.Tuple) []float64 {
	t.Helper()
	out := make([]float64, len(tuples))
	for i, tup := range tuples {
		// Schema: A(id,key,score) ++ B(id,key,score).
		out[i] = tup[2].AsFloat() + tup[5].AsFloat()
	}
	return out
}

func newTestHRJN(a, b *relation.Relation) *HRJN {
	return NewHRJN(rankedScan(a), rankedScan(b),
		expr.Col("A", "score"), expr.Col("B", "score"),
		expr.Col("A", "key"), expr.Col("B", "key"), nil)
}

// The headline invariant: HRJN's first k results carry exactly the top-k
// combined scores of the full join.
func TestHRJNTopKMatchesReference(t *testing.T) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 400, Selectivity: 0.02, Seed: 51})
	b := workload.Ranked(workload.RankedConfig{Name: "B", N: 400, Selectivity: 0.02, Seed: 52})
	for _, k := range []int{1, 5, 25, 100} {
		want := topKReference(a, b, k)
		j := newTestHRJN(a, b)
		got, err := CollectK(j, k)
		if err != nil {
			t.Fatal(err)
		}
		scores := combinedScores(t, got)
		if len(scores) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(scores), len(want))
		}
		for i := range want {
			if math.Abs(scores[i]-want[i]) > 1e-9 {
				t.Fatalf("k=%d: score[%d]=%v, want %v", k, i, scores[i], want[i])
			}
		}
	}
}

func TestHRJNEmitsAllResultsWhenDrained(t *testing.T) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 200, Selectivity: 0.05, Seed: 61})
	b := workload.Ranked(workload.RankedConfig{Name: "B", N: 200, Selectivity: 0.05, Seed: 62})
	all := topKReference(a, b, 1<<30)
	j := newTestHRJN(a, b)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(all) {
		t.Fatalf("drained HRJN produced %d, want %d", len(got), len(all))
	}
	scores := combinedScores(t, got)
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1]+1e-9 {
			t.Fatal("HRJN output not in descending score order")
		}
	}
}

// Early-out: for small k the operator must NOT consume its whole inputs.
func TestHRJNEarlyOut(t *testing.T) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 5000, Selectivity: 0.01, Seed: 71})
	b := workload.Ranked(workload.RankedConfig{Name: "B", N: 5000, Selectivity: 0.01, Seed: 72})
	j := newTestHRJN(a, b)
	if _, err := CollectK(j, 10); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.LeftDepth >= 5000 || st.RightDepth >= 5000 {
		t.Fatalf("no early-out: depths %d/%d", st.LeftDepth, st.RightDepth)
	}
	if st.LeftDepth == 0 || st.RightDepth == 0 {
		t.Fatal("depths not recorded")
	}
	if st.MaxQueue == 0 {
		t.Fatal("queue high-water not recorded")
	}
	if st.Emitted != 10 {
		t.Fatalf("Emitted = %d", st.Emitted)
	}
}

func TestHRJNContractViolationDetected(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, 0.2}, {1, 1, 0.9}}) // ascending! violates contract
	b := makeRel("B", [][3]float64{{0, 1, 0.5}})
	j := NewHRJN(NewSeqScan(a), rankedScan(b),
		expr.Col("A", "score"), expr.Col("B", "score"),
		expr.Col("A", "key"), expr.Col("B", "key"), nil)
	_, err := Collect(j)
	if err == nil {
		t.Fatal("HRJN must reject unordered input")
	}
}

func TestHRJNResidualPredicate(t *testing.T) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 150, Selectivity: 0.1, Seed: 81})
	b := workload.Ranked(workload.RankedConfig{Name: "B", N: 150, Selectivity: 0.1, Seed: 82})
	res := expr.Bin(expr.OpNe, expr.Col("A", "id"), expr.Col("B", "id"))
	j := NewHRJN(rankedScan(a), rankedScan(b),
		expr.Col("A", "score"), expr.Col("B", "score"),
		expr.Col("A", "key"), expr.Col("B", "key"), res)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range got {
		if tup[0].AsInt() == tup[3].AsInt() {
			t.Fatal("residual predicate ignored")
		}
	}
}

func TestHRJNEmptyInputs(t *testing.T) {
	a := makeRel("A", nil)
	b := makeRel("B", [][3]float64{{0, 1, 0.5}})
	j := newTestHRJN(a, b)
	got, err := Collect(j)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty join: %v, %v", got, err)
	}
}

func TestNRJNTopKMatchesReference(t *testing.T) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 300, Selectivity: 0.03, Seed: 91})
	b := workload.Ranked(workload.RankedConfig{Name: "B", N: 300, Selectivity: 0.03, Seed: 92})
	pred := expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key"))
	for _, k := range []int{1, 10, 50} {
		want := topKReference(a, b, k)
		// NRJN's inner need not be sorted: feed it heap order.
		j := NewNRJN(rankedScan(a), NewSeqScan(b),
			expr.Col("A", "score"), expr.Col("B", "score"), pred)
		got, err := CollectK(j, k)
		if err != nil {
			t.Fatal(err)
		}
		scores := combinedScores(t, got)
		if len(scores) != len(want) {
			t.Fatalf("k=%d: %d results, want %d", k, len(scores), len(want))
		}
		for i := range want {
			if math.Abs(scores[i]-want[i]) > 1e-9 {
				t.Fatalf("k=%d: score[%d]=%v, want %v", k, i, scores[i], want[i])
			}
		}
	}
}

// A keyed NRJN tests each outer tuple against its key's chain only, but
// offers what the one-chain NRJN offers, in the same order: the same rows,
// ties included, the same depths and the same queue high-water mark.
func TestNRJNKeyedMatchesOneChain(t *testing.T) {
	pred := expr.And(expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key")),
		expr.Bin(expr.OpLt, expr.Col("A", "id"), expr.Col("B", "id")))
	for seed := int64(1); seed <= 20; seed++ {
		a := workload.Ranked(workload.RankedConfig{Name: "A", N: 300, Selectivity: 0.05, Seed: seed})
		b := workload.Ranked(workload.RankedConfig{Name: "B", N: 300, Selectivity: 0.05, Seed: seed + 100})
		for _, k := range []int{5, 1 << 30} {
			var rows [2][]relation.Tuple
			var stats [2]RankJoinStats
			for x, keyed := range []bool{false, true} {
				j := NewNRJN(rankedScan(a), NewSeqScan(b), expr.Col("A", "score"), expr.Col("B", "score"), pred)
				if keyed {
					j.LeftKey, j.RightKey = expr.Col("A", "key"), expr.Col("B", "key")
				}
				var err error
				if rows[x], err = CollectK(j, k); err != nil {
					t.Fatal(err)
				}
				stats[x] = j.Stats()
			}
			if at, ok := sameRows(rows[0], rows[1]); !ok || stats[0] != stats[1] {
				t.Fatalf("seed %d k=%d: keyed NRJN diverges at row %d (stats %+v vs %+v)", seed, k, at, stats[1], stats[0])
			}
		}
	}
}

func TestNRJNEarlyOutOnOuter(t *testing.T) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 3000, Selectivity: 0.01, Seed: 101})
	b := workload.Ranked(workload.RankedConfig{Name: "B", N: 3000, Selectivity: 0.01, Seed: 102})
	pred := expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key"))
	j := NewNRJN(rankedScan(a), NewSeqScan(b),
		expr.Col("A", "score"), expr.Col("B", "score"), pred)
	if _, err := CollectK(j, 5); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.LeftDepth >= 3000 {
		t.Fatalf("NRJN outer early-out failed: depth %d", st.LeftDepth)
	}
	if st.RightDepth != 3000 {
		t.Fatalf("NRJN inner should be fully materialized: %d", st.RightDepth)
	}
}

func TestNRJNContractViolationDetected(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, 0.2}, {1, 1, 0.9}})
	b := makeRel("B", [][3]float64{{0, 1, 0.5}})
	pred := expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key"))
	j := NewNRJN(NewSeqScan(a), NewSeqScan(b),
		expr.Col("A", "score"), expr.Col("B", "score"), pred)
	if _, err := Collect(j); err == nil {
		t.Fatal("NRJN must reject unordered outer")
	}
}

func TestNRJNNonEquiPredicate(t *testing.T) {
	// NRJN handles arbitrary predicates (no hashing involved).
	a := makeRel("A", [][3]float64{{0, 1, 0.9}, {1, 5, 0.4}})
	b := makeRel("B", [][3]float64{{0, 3, 0.8}, {1, 0, 0.2}})
	pred := expr.Bin(expr.OpLt, expr.Col("A", "key"), expr.Col("B", "key"))
	j := NewNRJN(rankedScan(a), NewSeqScan(b),
		expr.Col("A", "score"), expr.Col("B", "score"), pred)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// Matches: A.key=1 < B.key=3 only.
	if len(got) != 1 || got[0][0].AsInt() != 0 {
		t.Fatalf("non-equi NRJN = %v", got)
	}
}

// Property: for random workloads, both rank-join operators report scores in
// non-increasing order and agree with each other on the score sequence.
func TestRankJoinsAgreeProperty(t *testing.T) {
	pred := expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key"))
	f := func(seed int64) bool {
		n := 120
		a := workload.Ranked(workload.RankedConfig{Name: "A", N: n, Selectivity: 0.05, Seed: seed})
		b := workload.Ranked(workload.RankedConfig{Name: "B", N: n, Selectivity: 0.05, Seed: seed + 1})
		h := newTestHRJN(a, b)
		hg, err := Collect(h)
		if err != nil {
			return false
		}
		nr := NewNRJN(rankedScan(a), NewSeqScan(b),
			expr.Col("A", "score"), expr.Col("B", "score"), pred)
		ng, err := Collect(nr)
		if err != nil {
			return false
		}
		if len(hg) != len(ng) {
			return false
		}
		hs := combinedScores(t, hg)
		ns := combinedScores(t, ng)
		for i := range hs {
			if math.Abs(hs[i]-ns[i]) > 1e-9 {
				return false
			}
			if i > 0 && hs[i] > hs[i-1]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHRJNTop10(b *testing.B) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 20000, Selectivity: 0.001, Seed: 121})
	bb := workload.Ranked(workload.RankedConfig{Name: "B", N: 20000, Selectivity: 0.001, Seed: 122})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := newTestHRJN(a, bb)
		if _, err := CollectK(j, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinThenSortTop10(b *testing.B) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 20000, Selectivity: 0.001, Seed: 121})
	bb := workload.Ranked(workload.RankedConfig{Name: "B", N: 20000, Selectivity: 0.001, Seed: 122})
	score := expr.Sum(
		expr.ScoreTerm{Weight: 1, E: expr.Col("A", "score")},
		expr.ScoreTerm{Weight: 1, E: expr.Col("B", "score")},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewHashJoin(NewSeqScan(a), NewSeqScan(bb), expr.Col("A", "key"), expr.Col("B", "key"), nil)
		s := NewSortByScore(h, score)
		if _, err := CollectK(s, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeadRankJoinStops: once one input is exhausted without ever buffering
// a tuple no result can form, so the join must report exhaustion instead of
// reading the other input out. Before the fix each of these read all 50 000
// tuples of the big input to emit nothing.
func TestDeadRankJoinStops(t *testing.T) {
	const n = 50000
	empty := makeRel("E", nil)
	sch, tups := buildRankedInput(n, 100, 1)
	eScore, eKey := expr.Col("E", "score"), expr.Col("E", "key")
	score, key := expr.Col("A", "score"), expr.Col("A", "key")
	cases := []struct {
		name  string
		build func(big Operator) Operator
	}{
		{"hrjn-empty-left", func(big Operator) Operator {
			return NewHRJN(NewSeqScan(empty), big, eScore, score, eKey, key, nil)
		}},
		{"hrjn-empty-right", func(big Operator) Operator {
			return NewHRJN(big, NewSeqScan(empty), score, eScore, key, eKey, nil)
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

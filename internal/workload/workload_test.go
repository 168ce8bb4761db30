package workload

import (
	"math"
	"testing"

	"rankopt/internal/relation"
)

func TestRankedShape(t *testing.T) {
	rel := Ranked(RankedConfig{Name: "A", N: 1000, Selectivity: 0.01, Seed: 1})
	if rel.Cardinality() != 1000 {
		t.Fatalf("cardinality = %d", rel.Cardinality())
	}
	if rel.Schema().Len() != 3 {
		t.Fatalf("schema = %s", rel.Schema())
	}
	for i, tup := range rel.Tuples() {
		if tup[0].AsInt() != int64(i) {
			t.Fatal("id must equal heap position")
		}
		s := tup[2].AsFloat()
		if s < 0 || s > 1 {
			t.Fatalf("score %v out of [0,1]", s)
		}
		k := tup[1].AsInt()
		if k < 0 || k >= 100 {
			t.Fatalf("key %d out of domain [0,100)", k)
		}
	}
}

func TestRankedUniqueKeysWhenSelectivityZero(t *testing.T) {
	rel := Ranked(RankedConfig{Name: "A", N: 50, Seed: 2})
	seen := map[int64]bool{}
	for _, tup := range rel.Tuples() {
		k := tup[1].AsInt()
		if seen[k] {
			t.Fatalf("duplicate key %d with Selectivity=0", k)
		}
		seen[k] = true
	}
}

func TestRankedScoreRange(t *testing.T) {
	rel := Ranked(RankedConfig{Name: "A", N: 500, ScoreMin: 10, ScoreMax: 20, Seed: 3})
	for _, tup := range rel.Tuples() {
		s := tup[2].AsFloat()
		if s < 10 || s > 20 {
			t.Fatalf("score %v out of [10,20]", s)
		}
	}
}

// The generator's whole point: measured join selectivity must track the
// requested value.
func TestRankedSelectivityAchieved(t *testing.T) {
	const n, want = 2000, 0.01
	a := Ranked(RankedConfig{Name: "A", N: n, Selectivity: want, Seed: 10})
	b := Ranked(RankedConfig{Name: "B", N: n, Selectivity: want, Seed: 11})
	// Count matches via a key histogram.
	hist := map[int64]int{}
	for _, tup := range a.Tuples() {
		hist[tup[1].AsInt()]++
	}
	matches := 0
	for _, tup := range b.Tuples() {
		matches += hist[tup[1].AsInt()]
	}
	got := float64(matches) / float64(n*n)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("measured selectivity %v, want %v ±15%%", got, want)
	}
}

func TestRankedDeterminism(t *testing.T) {
	a := Ranked(RankedConfig{Name: "A", N: 100, Selectivity: 0.1, Seed: 42})
	b := Ranked(RankedConfig{Name: "A", N: 100, Selectivity: 0.1, Seed: 42})
	for i := range a.Tuples() {
		for j := range a.Tuple(i) {
			if !a.Tuple(i)[j].Equal(b.Tuple(i)[j]) {
				t.Fatal("same seed must reproduce the same relation")
			}
		}
	}
	c := Ranked(RankedConfig{Name: "A", N: 100, Selectivity: 0.1, Seed: 43})
	same := true
	for i := range a.Tuples() {
		if !a.Tuple(i)[2].Equal(c.Tuple(i)[2]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestRankedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero N", func() { Ranked(RankedConfig{Name: "A"}) })
	mustPanic("inverted range", func() {
		Ranked(RankedConfig{Name: "A", N: 1, ScoreMin: 2, ScoreMax: 1})
	})
	mustPanic("bad corpus", func() { Corpus(CorpusConfig{}) })
}

func TestRankedSet(t *testing.T) {
	cat, names := RankedSet(3, RankedConfig{N: 200, Selectivity: 0.05, Seed: 5})
	if len(names) != 3 || names[0] != "T1" || names[2] != "T3" {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		if cat.Cardinality(n) != 200 {
			t.Errorf("%s cardinality = %d", n, cat.Cardinality(n))
		}
		if cat.IndexOn(n, "score") == nil || cat.IndexOn(n, "key") == nil {
			t.Errorf("%s missing indexes", n)
		}
	}
	// Distinct relations (seeds differ).
	a, _ := cat.Table("T1")
	b, _ := cat.Table("T2")
	if a.Rel.Tuple(0)[2].Equal(b.Rel.Tuple(0)[2]) && a.Rel.Tuple(1)[2].Equal(b.Rel.Tuple(1)[2]) {
		t.Error("relations should have independent scores")
	}
}

func TestCorpus(t *testing.T) {
	cat, names := Corpus(CorpusConfig{Objects: 300, Features: 4, Seed: 9})
	if len(names) != 4 || names[0] != "ColorHist" || names[3] != "Edges" {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		tab, err := cat.Table(n)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Stats.Card != 300 {
			t.Errorf("%s card = %d", n, tab.Stats.Card)
		}
		// Every object id present exactly once.
		idx := cat.IndexOn(n, "id")
		if idx == nil {
			t.Fatalf("%s missing id index", n)
		}
		for i := 0; i < 300; i++ {
			rids := idx.Image().Lookup(relation.Int(int64(i)))
			if len(rids) != 1 {
				t.Fatalf("%s id %d appears %d times", n, i, len(rids))
			}
		}
	}
	// More features than named ones get synthetic names.
	_, names = Corpus(CorpusConfig{Objects: 10, Features: 5, Seed: 1})
	if names[4] != "Feat5" {
		t.Errorf("5th feature name = %s", names[4])
	}
}

func TestCorpusScoreStats(t *testing.T) {
	cat, names := Corpus(CorpusConfig{Objects: 5000, Features: 1, Seed: 13})
	cs := cat.ColStats(names[0], "score")
	if cs.Min > 0.01 || cs.Max < 0.99 {
		t.Errorf("uniform scores should span ~[0,1]: [%v,%v]", cs.Min, cs.Max)
	}
	// Slab ≈ range/(n-1).
	wantSlab := (cs.Max - cs.Min) / 4999
	if math.Abs(cs.Slab-wantSlab) > 1e-12 {
		t.Errorf("slab = %v, want %v", cs.Slab, wantSlab)
	}
}

func TestScoreDistributions(t *testing.T) {
	const n = 20000
	means := map[ScoreDist]float64{}
	for _, d := range []ScoreDist{DistUniform, DistGaussian, DistPowerLow, DistPowerHigh} {
		rel := Ranked(RankedConfig{Name: "A", N: n, Seed: 4, Dist: d})
		sum := 0.0
		for _, tup := range rel.Tuples() {
			s := tup[2].AsFloat()
			if s < 0 || s > 1 {
				t.Fatalf("dist %d: score %v out of range", d, s)
			}
			sum += s
		}
		means[d] = sum / n
	}
	// Uniform and Gaussian center near 0.5; the power laws skew hard.
	if math.Abs(means[DistUniform]-0.5) > 0.02 || math.Abs(means[DistGaussian]-0.5) > 0.02 {
		t.Errorf("central distributions off: %v / %v", means[DistUniform], means[DistGaussian])
	}
	// E[u^4] = 1/5, so the power-low mean sits near 0.2.
	if means[DistPowerLow] > 0.3 || means[DistPowerLow] < 0.1 {
		t.Errorf("power-low mean = %v, want ~0.2", means[DistPowerLow])
	}
	if means[DistPowerHigh] < 0.7 {
		t.Errorf("power-high mean = %v, want well above 0.7", means[DistPowerHigh])
	}
	// Gaussian should concentrate: sample variance below uniform's 1/12.
	varOf := func(d ScoreDist) float64 {
		rel := Ranked(RankedConfig{Name: "A", N: n, Seed: 4, Dist: d})
		m := means[d]
		v := 0.0
		for _, tup := range rel.Tuples() {
			x := tup[2].AsFloat() - m
			v += x * x
		}
		return v / n
	}
	if varOf(DistGaussian) >= varOf(DistUniform) {
		t.Error("gaussian scores should be more concentrated than uniform")
	}
}

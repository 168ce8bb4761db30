package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// walkFamilies are the column contents an index walk must order exactly as
// the incremental sort does. Each draws value i of n.
var walkFamilies = []struct {
	name string
	draw func(rng *rand.Rand, i int) relation.Value
}{
	{"distinct", func(rng *rand.Rand, _ int) relation.Value { return relation.Float(rng.NormFloat64()) }},
	{"heavy-ties", func(rng *rand.Rand, _ int) relation.Value {
		// Int and Float spellings of one number are one key.
		v := rng.Intn(4)
		if rng.Intn(2) == 0 {
			return relation.Int(int64(v))
		}
		return relation.Float(float64(v))
	}},
	{"specials", func(rng *rand.Rand, _ int) relation.Value {
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1}
		return relation.Float(specials[rng.Intn(len(specials))])
	}},
	{"weight-collisions", func(rng *rand.Rand, _ int) relation.Value {
		// Distinct values that a weight maps to one key: neighbours one ulp
		// apart (0.2·x rounds some pairs together), values that 3·x
		// overflows to +Inf, and subnormals 0.2·x flushes to ±0.
		base := []float64{0.1, 0.7, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0, math.Inf(1)}
		f := base[rng.Intn(len(base))]
		for j := rng.Intn(3); j > 0; j-- {
			f = math.Nextafter(f, math.Inf(1))
		}
		return relation.Float(f)
	}},
	{"ints-above-2^53", func(rng *rand.Rand, _ int) relation.Value {
		// Ints that widen to one float64 are one key.
		return relation.Int(1<<53 + int64(rng.Intn(6)))
	}},
}

// walkRel is a relation (id INT, x FLOAT, s VARCHAR) with x drawn by draw,
// s a few strings, id the heap position, registered in a fresh catalog with
// an index on x and one on s.
func walkRel(n int, seed int64, draw func(*rand.Rand, int) relation.Value) *catalog.Catalog {
	rel := relation.New("W", relation.NewSchema(
		relation.Column{Table: "W", Name: "id", Kind: relation.KindInt},
		relation.Column{Table: "W", Name: "x", Kind: relation.KindFloat},
		relation.Column{Table: "W", Name: "s", Kind: relation.KindString},
	))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		s := relation.String_(string(rune('a' + rng.Intn(3))))
		rel.MustAppend(relation.Tuple{relation.Int(int64(i)), draw(rng, i), s})
	}
	cat := catalog.New()
	cat.AddTable(rel)
	for _, col := range []string{"x", "s"} {
		if _, err := cat.CreateIndex("W", col, false); err != nil {
			panic(err)
		}
	}
	return cat
}

// walkSorts returns a Sort given the index on col of cat's table W, keyed
// by key, and the same Sort without it, both over bare scans of W.
func walkSorts(cat *catalog.Catalog, col string, key SortKey, w float64) (walk, sorted *Sort) {
	tab, _ := cat.Table("W")
	pos, _ := tab.Rel.Schema().Resolve("W", col)
	walk = NewSort(NewSeqScan(tab.Rel), key)
	walk.Index = &IndexOrder{Idx: cat.IndexOn("W", col), Rel: tab.Rel, Col: pos, Weight: w}
	return walk, NewSort(NewSeqScan(tab.Rel), key)
}

// sortedIDs opens s, reads up to limit rows (limit < 0: all of them), closes
// it and returns the ids it read.
func sortedIDs(t *testing.T, s *Sort, limit int) []int64 {
	t.Helper()
	if err := s.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for limit < 0 || len(ids) < limit {
		tup, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		ids = append(ids, tup[0].AsInt())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestSortIndexImageMatchesSort: a Sort that walks an index emits exactly
// the sequence the incremental sort emits over the same heap — ascending and
// descending, for the bare column and weights 1, 0.2 and 3, over heavy ties,
// distinct values that collide under the weight (overflow to +Inf
// included), NaN, ±0, ±Inf and ints above 2^53 — read to the end and to a
// prefix, and again after Close and a re-Open.
func TestSortIndexImageMatchesSort(t *testing.T) {
	col := expr.Col("W", "x")
	for fi, fam := range walkFamilies {
		cat := walkRel(600, int64(fi+1), fam.draw)
		for _, w := range []float64{1, 0.2, 3} {
			keys := []expr.Expr{expr.Sum(expr.ScoreTerm{Weight: w, E: col})}
			if w == 1 {
				keys = append(keys, col)
			}
			for _, e := range keys {
				for _, desc := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/desc=%v", fam.name, e, desc)
					walk, sorted := walkSorts(cat, "x", SortKey{E: e, Desc: desc}, w)
					want := sortedIDs(t, sorted, -1)
					for _, limit := range []int{-1, 37, -1} {
						got := sortedIDs(t, walk, limit)
						if !walk.walking {
							t.Fatalf("%s: the Sort did not walk its index", name)
						}
						n := len(want)
						if limit >= 0 {
							n = limit
						}
						if !slices.Equal(got, want[:n]) {
							t.Fatalf("%s, %d rows read: walk emitted\n%v\nsort emitted\n%v", name, n, got, want[:n])
						}
					}
				}
			}
		}
	}
}

// TestSortIndexImageFallbacks: a Sort given an index whose column holds a
// NULL or a string buffers and sorts its input as it always did, with the
// same output as a Sort given none.
func TestSortIndexImageFallbacks(t *testing.T) {
	nulls := walkRel(300, 5, func(rng *rand.Rand, i int) relation.Value {
		if i%7 == 3 {
			return relation.Null()
		}
		return relation.Float(float64(rng.Intn(20)))
	})
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		col  string
	}{
		{"null", nulls, "x"},
		{"string", walkRel(300, 6, walkFamilies[0].draw), "s"},
	} {
		for _, desc := range []bool{false, true} {
			key := SortKey{E: expr.Col("W", tc.col), Desc: desc}
			walk, sorted := walkSorts(tc.cat, tc.col, key, 1)
			got, want := sortedIDs(t, walk, -1), sortedIDs(t, sorted, -1)
			if walk.walking || walk.buffered != 300 {
				t.Errorf("%s desc=%v: walking=%v buffered=%d, want the drain of all 300 rows", tc.name, desc, walk.walking, walk.buffered)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s desc=%v: output differs from the unindexed Sort", tc.name, desc)
			}
		}
	}
}

// TestSortIndexImageAllocs: once the images exist, opening an index-walking
// Sort, reading 50 rows and closing it allocates nothing.
func TestSortIndexImageAllocs(t *testing.T) {
	cat := walkRel(20000, 3, walkFamilies[0].draw)
	walk, _ := walkSorts(cat, "x", SortKey{E: expr.Sum(expr.ScoreTerm{Weight: 0.2, E: expr.Col("W", "x")}), Desc: true}, 0.2)
	allocs := testing.AllocsPerRun(20, func() {
		if err := walk.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, ok, err := walk.Next(); err != nil || !ok {
				t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
			}
		}
		if err := walk.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if !walk.walking {
		t.Fatal("the Sort did not walk its index")
	}
	if allocs != 0 {
		t.Errorf("%.1f allocs per warm Open/Next×50/Close of an index walk, want 0", allocs)
	}
}

// TestSortIndexImageBudget: an index walk buffers nothing, so it charges the
// budget nothing and runs under a cap far below the input; the same Sort
// without its index charges every input row until Close.
func TestSortIndexImageBudget(t *testing.T) {
	cat := walkRel(500, 4, walkFamilies[0].draw)
	walk, sorted := walkSorts(cat, "x", SortKey{E: expr.Col("W", "x"), Desc: true}, 1)
	for _, tc := range []struct {
		s      *Sort
		capped int64
		charge int64
	}{{walk, 10, 0}, {sorted, 1000, 500}} {
		b := NewBudget(ResourceLimits{MaxBufferedTuples: tc.capped})
		tc.s.Budget = b
		if err := tc.s.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := tc.s.Next(); err != nil || !ok {
			t.Fatalf("Next: ok=%v err=%v", ok, err)
		}
		if got := b.Buffered(); got != tc.charge {
			t.Errorf("walking=%v: open Sort charges %d tuples, want %d", tc.s.walking, got, tc.charge)
		}
		if err := tc.s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := b.Buffered(); got != 0 {
			t.Errorf("walking=%v: %d tuples still charged after Close", tc.s.walking, got)
		}
	}
}

// BenchmarkSortEnforcer is the Sort enforcer under a rank join's read: a
// descending Sort over a bare scan of n random scores, read d = 50 deep and
// closed, given the score index (the walk) and not (the incremental sort,
// which keys the lent heap from its column images), and not behind TuplePath
// (the incremental sort over a copy, keyed on each tuple).
func BenchmarkSortEnforcer(b *testing.B) {
	for _, n := range []int{1500, 20000} {
		cat := walkRel(n, int64(n), func(rng *rand.Rand, _ int) relation.Value { return relation.Float(rng.Float64()) })
		key := SortKey{E: expr.Sum(expr.ScoreTerm{Weight: 0.3, E: expr.Col("W", "x")}), Desc: true}
		walk, sorted := walkSorts(cat, "x", key, 0.3)
		tab, _ := cat.Table("W")
		tuples := NewSort(TuplePath(NewSeqScan(tab.Rel)), key)
		for _, c := range []struct {
			name string
			s    *Sort
		}{{"indexed", walk}, {"unindexed", sorted}, {"unindexed/tuplepath", tuples}} {
			b.Run(fmt.Sprintf("%s/n=%d/d=50", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := CollectK(c.s, 50)
					if err != nil || len(out) != 50 {
						b.Fatalf("read %d of 50: %v", len(out), err)
					}
				}
			})
		}
	}
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// keyRel is a relation (id INT, a FLOAT, b INT, c FLOAT, s VARCHAR, n FLOAT)
// of n rows: id the heap position, a drawn by draw (numbers, NaN, ±Inf, ±0,
// Int and Float spellings of one number), b and c small numbers with many
// ties, s a few strings, and n a number that is NULL in every seventh row.
func keyRel(n int, seed int64, draw func(*rand.Rand, int) relation.Value) *relation.Relation {
	rel := relation.New("K", relation.NewSchema(
		relation.Column{Table: "K", Name: "id", Kind: relation.KindInt},
		relation.Column{Table: "K", Name: "a", Kind: relation.KindFloat},
		relation.Column{Table: "K", Name: "b", Kind: relation.KindInt},
		relation.Column{Table: "K", Name: "c", Kind: relation.KindFloat},
		relation.Column{Table: "K", Name: "s", Kind: relation.KindString},
		relation.Column{Table: "K", Name: "n", Kind: relation.KindFloat},
	))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		nv := relation.Float(float64(rng.Intn(5)))
		if i%7 == 3 {
			nv = relation.Null()
		}
		rel.MustAppend(relation.Tuple{
			relation.Int(int64(i)), draw(rng, i), relation.Int(int64(rng.Intn(6))),
			relation.Float(float64(rng.Intn(4)) / 2), relation.String_(string(rune('a' + rng.Intn(3)))), nv,
		})
	}
	return rel
}

// keyCol is column name of keyRel.
func keyCol(name string) expr.Expr { return expr.Col("K", name) }

// imageKeyShapes are the leading keys a drain reads from column images: one
// weighted column, a multi-term weighted sum (a negative weight and an INT
// column among its terms) and two bare columns.
var imageKeyShapes = []expr.Expr{
	expr.Sum(expr.ScoreTerm{Weight: 0.3, E: keyCol("a")}),
	expr.Sum(expr.ScoreTerm{Weight: 0.5, E: keyCol("a")}, expr.ScoreTerm{Weight: 2, E: keyCol("b")},
		expr.ScoreTerm{Weight: -1, E: keyCol("c")}),
	keyCol("a"),
	keyCol("b"),
}

// sortRun is what a Sort did on one read: the ids it emitted and its gauges.
type sortRun struct {
	ids               []int64
	buffered, emitted int
}

// readSort opens s, reads up to limit rows (all when negative), closes it
// and reports the run.
func readSort(t *testing.T, s *Sort, limit int) sortRun {
	t.Helper()
	ids := sortedIDs(t, s, limit)
	g := s.gauges()
	return sortRun{ids: ids, buffered: g.sortBuffered, emitted: g.sortEmitted}
}

// TestSortImageKeysMatchTuplePath: a Sort that orders a whole lent heap and
// reads its leading key from the column images emits exactly what the same
// Sort behind TuplePath emits — which keys each row on its tuple — with the
// same gauges: 40 seeded heaps of distinct, tied (Int and Float spellings
// mixed) and special (NaN, ±Inf, ±0) values, ascending and descending, each
// image-readable key shape with and without a second (tie) key, read to the
// end, to a prefix, and again after a re-Open.
func TestSortImageKeysMatchTuplePath(t *testing.T) {
	for seed := 0; seed < 40; seed++ {
		fam := walkFamilies[seed%3]
		rel := keyRel(200+10*seed, int64(seed+1), fam.draw)
		for ki, lead := range imageKeyShapes {
			for _, tie := range []bool{false, true} {
				for _, desc := range []bool{false, true} {
					keys := []SortKey{{E: lead, Desc: desc}}
					if tie {
						keys = append(keys, SortKey{E: keyCol("s"), Desc: !desc})
					}
					name := fmt.Sprintf("seed=%d/%s/key=%d/tie=%v/desc=%v", seed, fam.name, ki, tie, desc)
					img := NewSort(NewSeqScan(rel), keys...)
					ref := NewSort(TuplePath(NewSeqScan(rel)), keys...)
					for _, limit := range []int{-1, 37, -1} {
						got, want := readSort(t, img, limit), readSort(t, ref, limit)
						if !img.imageKeys || ref.imageKeys {
							t.Fatalf("%s: image keys %v and %v, want the lent heap keyed from images only", name, img.imageKeys, ref.imageKeys)
						}
						if !slices.Equal(got.ids, want.ids) || got.buffered != want.buffered || got.emitted != want.emitted {
							t.Fatalf("%s, limit %d: image-keyed Sort emitted\n%v (buffered %d, emitted %d)\ntuple path emitted\n%v (buffered %d, emitted %d)",
								name, limit, got.ids, got.buffered, got.emitted, want.ids, want.buffered, want.emitted)
						}
					}
				}
			}
		}
	}
}

// TestSortImageKeysFallbacks: the drain keys on the tuples whenever the
// images cannot give today's key — a NULL term in some row, a string key,
// an input that lends no whole heap (a Filter, a partly read SeqScan) — and
// its output is still the tuple path's.
func TestSortImageKeysFallbacks(t *testing.T) {
	rel := keyRel(300, 9, walkFamilies[1].draw)
	all := expr.Bin(expr.OpGe, keyCol("id"), expr.IntLit(0))
	for _, tc := range []struct {
		name string
		lead expr.Expr
		in   func() Operator
	}{
		{"null-term", expr.Sum(expr.ScoreTerm{Weight: 1, E: keyCol("a")}, expr.ScoreTerm{Weight: 1, E: keyCol("n")}), nil},
		{"null-column", keyCol("n"), nil},
		{"string", keyCol("s"), nil},
		{"filter", keyCol("a"), func() Operator { return NewFilter(NewSeqScan(rel), all) }},
	} {
		for _, desc := range []bool{false, true} {
			keys := []SortKey{{E: tc.lead, Desc: desc}, {E: keyCol("id")}}
			in := Operator(NewSeqScan(rel))
			if tc.in != nil {
				in = tc.in()
			}
			s := NewSort(in, keys...)
			got, want := readSort(t, s, -1), readSort(t, NewSort(TuplePath(NewSeqScan(rel)), keys...), -1)
			if s.imageKeys {
				t.Errorf("%s desc=%v: keyed from images", tc.name, desc)
			}
			if !slices.Equal(got.ids, want.ids) || got.buffered != 300 {
				t.Errorf("%s desc=%v: %d rows buffered, output differs from the tuple path", tc.name, desc, got.buffered)
			}
		}
	}

	// A SeqScan something has read from lends only the rest of its heap, so
	// an entry's position is not its row id.
	key := SortKey{E: keyCol("a"), Desc: true}
	s := NewSort(NewSeqScan(rel), key)
	ctx := context.Background()
	if err := s.In.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := s.In.Next(); !ok || err != nil {
			t.Fatalf("scan Next %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := s.drain(ctx); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		tup, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, tup[0].AsInt())
	}
	if s.imageKeys || s.heap != nil {
		t.Error("a partly read scan was keyed from images")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rest := FromTuples(rel.Schema(), rel.Tuples()[5:])
	if want := sortedIDs(t, NewSort(rest, key), -1); !slices.Equal(got, want) {
		t.Errorf("partly read scan: emitted\n%v\nwant\n%v", got, want)
	}
}

// errCountCtx is a context whose Err reports cancellation from its fail-th
// call on (never when fail is 0), counting the calls.
type errCountCtx struct {
	context.Context
	calls, fail int
}

func (c *errCountCtx) Err() error {
	c.calls++
	if c.fail > 0 && c.calls >= c.fail {
		return context.Canceled
	}
	return nil
}

// TestSortImageKeysCancellation: the image-keyed drain polls the context
// once per row, as the drain that evaluates its key on each lent tuple does,
// so both check it equally often; cancelled at any one of those checks, both
// fail Open with ErrQueryCancelled and leave nothing charged.
func TestSortImageKeysCancellation(t *testing.T) {
	rel := keyRel(1000, 4, walkFamilies[0].draw)
	tie := SortKey{E: keyCol("b")}
	img := NewSort(NewSeqScan(rel), SortKey{E: expr.Sum(expr.ScoreTerm{Weight: 0.3, E: keyCol("a")}), Desc: true}, tie)
	// A product is not a score binding: the drain evaluates it per tuple.
	val := NewSort(NewSeqScan(rel), SortKey{E: expr.Bin(expr.OpMul, expr.FloatLit(0.3), keyCol("a")), Desc: true}, tie)
	checks := func(s *Sort) int {
		ctx := &errCountCtx{Context: context.Background()}
		if err := s.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return ctx.calls
	}
	n := checks(img)
	if !img.imageKeys || val.imageKeys {
		t.Fatalf("image keys %v and %v, want the score sum keyed from images only", img.imageKeys, val.imageKeys)
	}
	if m := checks(val); n != m || n < 2*len(rel.Tuples())/cancelCheckPeriod {
		t.Fatalf("the image-keyed drain checks the context %d times, the tuple-keyed one %d, want the same, one per %d rows and key", n, m, cancelCheckPeriod)
	}
	for fail := 1; fail <= n; fail++ {
		for _, s := range []*Sort{img, val} {
			b := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
			s.Budget = b
			err := s.Open(&errCountCtx{Context: context.Background(), fail: fail})
			if !errors.Is(err, ErrQueryCancelled) {
				t.Fatalf("cancelled at check %d of %d: Open returned %v, want ErrQueryCancelled", fail, n, err)
			}
			if got := b.Buffered(); got != 0 {
				t.Fatalf("cancelled at check %d: %d tuples still charged", fail, got)
			}
			s.Budget = nil
		}
	}
	if got, want := readSort(t, img, -1), readSort(t, val, -1); !slices.Equal(got.ids, want.ids) {
		t.Error("after the cancelled Opens, the two Sorts emit different orders")
	}
}

// TestSortImageKeysAllocs: once the images exist, an image-keyed drain of a
// 4 000-row lent heap — Open, 50 rows read, Close — allocates nothing: no
// object per row, and none per run.
func TestSortImageKeysAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are only stable outside -race (sync.Pool drops items)")
	}
	rel := keyRel(4000, 3, walkFamilies[0].draw)
	s := NewSort(NewSeqScan(rel), SortKey{E: expr.Sum(expr.ScoreTerm{Weight: 0.2, E: keyCol("a")},
		expr.ScoreTerm{Weight: 0.8, E: keyCol("c")}), Desc: true})
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, ok, err := s.Next(); err != nil || !ok {
				t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if !s.imageKeys || s.buffered != 4000 {
		t.Fatalf("image keys %v, %d rows buffered: want the whole heap keyed from images", s.imageKeys, s.buffered)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocs per warm Open/Next×50/Close of an image-keyed drain, want 0", allocs)
	}
}

// TestSortImageKeysSpecials pins the key encoding's corners on a heap made
// of them: NaN below -Inf, -0 equal to +0 (ties keep heap order), Int(3)
// equal to Float(3).
func TestSortImageKeysSpecials(t *testing.T) {
	vals := []relation.Value{
		relation.Float(math.NaN()), relation.Float(math.Inf(1)), relation.Float(math.Copysign(0, -1)),
		relation.Int(3), relation.Float(0), relation.Float(math.Inf(-1)), relation.Float(3), relation.Float(math.NaN()),
	}
	rel := keyRel(len(vals), 1, func(_ *rand.Rand, i int) relation.Value { return vals[i] })
	for _, tc := range []struct {
		desc bool
		want []int64
	}{
		{false, []int64{0, 7, 5, 2, 4, 3, 6, 1}},
		{true, []int64{1, 3, 6, 2, 4, 5, 0, 7}},
	} {
		s := NewSort(NewSeqScan(rel), SortKey{E: keyCol("a"), Desc: tc.desc})
		if got := readSort(t, s, -1); !s.imageKeys || !slices.Equal(got.ids, tc.want) {
			t.Errorf("desc=%v: image keys %v, emitted %v, want %v", tc.desc, s.imageKeys, got.ids, tc.want)
		}
	}
}

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

// sortPropSchema is the property test's input shape: three key columns (the
// declared kind is irrelevant to Sort, which orders the values it sees) and
// the arrival index.
func sortPropSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Table: "S", Name: "k0", Kind: relation.KindFloat},
		relation.Column{Table: "S", Name: "k1", Kind: relation.KindFloat},
		relation.Column{Table: "S", Name: "k2", Kind: relation.KindFloat},
		relation.Column{Table: "S", Name: "id", Kind: relation.KindInt},
	)
}

// sortPropColumn draws one key column of n values. Every column is of one
// comparable family (numeric or string — Compare panics across them) with a
// small domain so ties are heavy, and may carry NULLs.
func sortPropColumn(rng *rand.Rand, n int) []relation.Value {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	family := rng.Intn(5)
	domain := 1 + rng.Intn(8)
	nullEvery := 0
	if rng.Intn(2) == 0 {
		nullEvery = 2 + rng.Intn(6)
	}
	col := make([]relation.Value, n)
	for i := range col {
		if nullEvery > 0 && rng.Intn(nullEvery) == 0 {
			continue // NULL
		}
		switch family {
		case 0: // floats, distinct with near certainty
			col[i] = relation.Float(rng.NormFloat64())
		case 1: // floats from a tiny domain plus ±Inf, NaN and both zeros
			if rng.Intn(3) == 0 {
				col[i] = relation.Float(specials[rng.Intn(len(specials))])
			} else {
				col[i] = relation.Float(float64(rng.Intn(domain)) / 2)
			}
		case 2: // ints
			col[i] = relation.Int(int64(rng.Intn(domain)) - 3)
		case 3: // ints and floats mixed: one numeric order across both kinds
			if rng.Intn(2) == 0 {
				col[i] = relation.Int(int64(rng.Intn(domain)))
			} else {
				col[i] = relation.Float(float64(rng.Intn(2*domain)) / 2)
			}
		default: // strings
			col[i] = relation.String_(fmt.Sprintf("s%02d", rng.Intn(domain)))
		}
	}
	return col
}

// sortRefCompare is the reference key order, written without the operator's
// helpers: Value.Compare — the comparator of the sort.SliceStable this
// operator replaced — wherever that is a total preorder, with NaN (which
// Compare calls equal to every number) placed between NULL and the numbers.
func sortRefCompare(a, b relation.Value) int {
	isNaN := func(v relation.Value) bool {
		f, ok := v.Float64()
		return ok && math.IsNaN(f)
	}
	switch an, bn := isNaN(a), isNaN(b); {
	case an && bn:
		return 0
	case an:
		if b.IsNull() {
			return 1
		}
		return -1
	case bn:
		if a.IsNull() {
			return -1
		}
		return 1
	}
	return a.Compare(b)
}

// sortRefIDs is the expected output: the ids of tuples under a stable sort.
func sortRefIDs(tuples []relation.Tuple, cols []int, desc []bool) []int64 {
	ref := slices.Clone(tuples)
	slices.SortStableFunc(ref, func(a, b relation.Tuple) int {
		for i, c := range cols {
			if r := sortRefCompare(a[c], b[c]); r != 0 {
				if desc[i] {
					return -r
				}
				return r
			}
		}
		return 0
	})
	ids := make([]int64, len(ref))
	for i, t := range ref {
		ids[i] = t[3].AsInt()
	}
	return ids
}

// TestSortMatchesStableSort: on seeded random inputs — 1 to 3 keys, mixed
// directions, NULLs, strings, ints, heavy ties, ±Inf and NaN — the
// incremental sort emits exactly the stable sort's sequence, whether it is
// read to a random prefix or to exhaustion, and again after Close and a
// re-Open over a different input (the buffers are reused).
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20040613))
	sizes := []int{0, 1, 2, 11, 12, 13, 40, 300, 3000}
	for trial := 0; trial < 400; trial++ {
		nk := 1 + rng.Intn(3)
		cols := rng.Perm(3)[:nk]
		desc := make([]bool, nk)
		keys := make([]SortKey, nk)
		for i, c := range cols {
			desc[i] = rng.Intn(2) == 0
			keys[i] = SortKey{E: expr.Col("S", fmt.Sprintf("k%d", c)), Desc: desc[i]}
		}
		// The input lends its tuples, or hands out batches of them, or
		// single tuples; Sort buffers each differently.
		in := &sliceOp{schema: sortPropSchema()}
		s := NewSort([]Operator{in, noLendBatch{in}, noLend{in}}[trial%3], keys...)
		// Two opens of one operator: the second sees new data of another size.
		for open := 0; open < 2; open++ {
			n := sizes[rng.Intn(len(sizes))]
			columns := [3][]relation.Value{sortPropColumn(rng, n), sortPropColumn(rng, n), sortPropColumn(rng, n)}
			in.tuples = make([]relation.Tuple, n)
			for i := range in.tuples {
				in.tuples[i] = relation.Tuple{columns[0][i], columns[1][i], columns[2][i], relation.Int(int64(i))}
			}
			want := sortRefIDs(in.tuples, cols, desc)
			read := n + 1 // past exhaustion
			if rng.Intn(2) == 0 {
				read = rng.Intn(n + 1)
			}
			if open == 1 {
				s.SizeHint = rng.Intn(2 * (n + 1))
			}
			if err := s.Open(context.Background()); err != nil {
				t.Fatalf("trial %d open %d: %v", trial, open, err)
			}
			for i := 0; i < read; i++ {
				tup, ok, err := s.Next()
				if err != nil {
					t.Fatalf("trial %d open %d: Next: %v", trial, open, err)
				}
				if !ok {
					if i != n {
						t.Fatalf("trial %d open %d: exhausted after %d of %d", trial, open, i, n)
					}
					break
				}
				if i >= n {
					t.Fatalf("trial %d open %d: emitted more than the %d buffered", trial, open, n)
				}
				if got := tup[3].AsInt(); got != want[i] {
					t.Fatalf("trial %d open %d (n=%d keys=%v desc=%v): position %d is id %d, stable sort has %d",
						trial, open, n, cols, desc, i, got, want[i])
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Next(); ok {
				t.Fatalf("trial %d: Next after Close produced a tuple", trial)
			}
		}
	}
}

// TestSortKeyBitsOrder pins the integer image of the leading key: float
// order, both zeros equal, NaN below -Inf, and the complement for DESC.
func TestSortKeyBitsOrder(t *testing.T) {
	asc := []float64{math.NaN(), math.Inf(-1), -1e300, -1, -5e-324, 0, 5e-324, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(asc); i++ {
		if a, b := sortKeyBits(asc[i-1], false), sortKeyBits(asc[i], false); a >= b {
			t.Errorf("asc: bits(%v)=%#x not below bits(%v)=%#x", asc[i-1], a, asc[i], b)
		}
		if a, b := sortKeyBits(asc[i-1], true), sortKeyBits(asc[i], true); a <= b {
			t.Errorf("desc: bits(%v)=%#x not above bits(%v)=%#x", asc[i-1], a, asc[i], b)
		}
	}
	if sortKeyBits(0, false) != sortKeyBits(math.Copysign(0, -1), false) {
		t.Error("-0 and +0 must share an image: Compare calls them equal, so arrival order decides")
	}
}

// noLend hides an operator's tupleLender and batch sides, so Sort copies its
// input through the per-tuple shim; noLendBatch hides the lending alone, so
// Sort copies the input's batches.
type noLend struct{ Operator }
type noLendBatch struct{ BatchOperator }

// TestSortAllocsPerOpen: an Open allocates a constant handful of objects —
// the bound key expressions, and the arrays themselves whenever the buffer
// pool has none to hand back — however many tuples it buffers: nothing per
// input tuple, whether the input lends its tuples or Sort copies them.
func TestSortAllocsPerOpen(t *testing.T) {
	score := SortKey{E: expr.Col("A", "score"), Desc: true}
	key := SortKey{E: expr.Col("A", "key")}
	sch, tups := buildRankedInput(8000, 7, 1)
	for _, keys := range [][]SortKey{{score}, {key, score}} {
		for _, lends := range []bool{true, false} {
			in := FromTuples(sch, tups)
			if !lends {
				in = noLendBatch{in.(BatchOperator)}
			}
			s := NewSort(in, keys...)
			s.SizeHint = len(tups)
			allocs := testing.AllocsPerRun(5, func() {
				if err := s.Open(context.Background()); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 40; i++ {
					if _, ok, err := s.Next(); err != nil || !ok {
						t.Fatalf("Next %d: ok=%v err=%v", i, ok, err)
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%d key(s), lends=%v: %.0f allocs per Open of %d tuples", len(keys), lends, allocs, len(tups))
			// Every array fresh is about a dozen: under the race detector
			// the pool drops some of what it is handed.
			if allocs > 16 {
				t.Errorf("%d key(s), lends=%v: %.0f allocs per Open of %d tuples, want a handful", len(keys), lends, allocs, len(tups))
			}
		}
	}
}

// cancellingSource emits identical tuples forever and cancels the query's
// context after its after-th tuple; only a context check ends a drain of it.
// With batched set it implements BatchOperator, so both of Sort's input paths
// (native batches, the per-tuple shim) are covered.
type cancellingSource struct {
	sch     *relation.Schema
	after   int
	cancel  context.CancelFunc
	emitted int
	closed  int
}

func (c *cancellingSource) Schema() *relation.Schema   { return c.sch }
func (c *cancellingSource) Open(context.Context) error { return nil }
func (c *cancellingSource) Close() error               { c.closed++; return nil }
func (c *cancellingSource) Next() (relation.Tuple, bool, error) {
	c.emitted++
	if c.emitted == c.after {
		c.cancel()
	}
	return relation.Tuple{relation.Int(1), relation.Float(float64(c.emitted % 17))}, true, nil
}

type cancellingBatchSource struct{ *cancellingSource }

func (c cancellingBatchSource) NextBatch(out *Batch, max int) (bool, error) {
	out.Reset()
	for i := 0; i < max; i++ {
		t, _, _ := c.Next()
		out.Append(t)
	}
	return true, nil
}

// TestSortCancelDuringDrain: a context cancelled while Sort is buffering
// fails the Open with the typed error within a batch or so, closes the input
// and leaves the budget uncharged.
func TestSortCancelDuringDrain(t *testing.T) {
	sch, _ := buildRankedInput(0, 1, 0)
	for _, batched := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &cancellingSource{sch: sch, after: 1000, cancel: cancel}
		var in Operator = src
		if batched {
			in = cancellingBatchSource{src}
		}
		b := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 30})
		s := NewSortByScore(in, expr.Col("A", "score"))
		s.Budget = b
		err := s.Open(ctx)
		cancel()
		if !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("batched=%v: want ErrQueryCancelled, got %v", batched, err)
		}
		if b.Buffered() != 0 {
			t.Errorf("batched=%v: %d tuples still charged after the failed Open", batched, b.Buffered())
		}
		if src.closed != 1 {
			t.Errorf("batched=%v: input closed %d times after the failed Open, want 1", batched, src.closed)
		}
		if src.emitted > src.after+2*DefaultBatchSize {
			t.Errorf("batched=%v: drain ran %d tuples past the cancellation", batched, src.emitted-src.after)
		}
	}
}

// TestSortCancelDuringRefine: the ordering work happens in Next now, so Next
// must notice a cancellation too — the first pull partitions the whole input.
func TestSortCancelDuringRefine(t *testing.T) {
	sch, tups := buildRankedInput(20000, 50, 1)
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSortByScore(FromTuples(sch, tups), expr.Col("A", "key"))
	if err := s.Open(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, _, err := s.Next(); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("Next after cancellation: want ErrQueryCancelled, got %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSortBudgetLifecycle: every buffered tuple stays charged until Close —
// however few were read — a failed Open leaves nothing charged and needs no
// Close, and the operator is reusable afterwards.
func TestSortBudgetLifecycle(t *testing.T) {
	sch, tups := buildRankedInput(700, 10, 1)
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 1000})
	s := NewSortByScore(FromTuples(sch, tups), expr.Col("A", "score"))
	s.Budget = b
	if err := s.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); err != nil || !ok {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if b.Buffered() != 700 {
		t.Fatalf("open sort holds %d charged tuples, want all 700", b.Buffered())
	}

	other := NewSortByScore(FromTuples(sch, tups), expr.Col("A", "score"))
	other.Budget = b
	if err := other.Open(context.Background()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("second sort over a shared 1000-tuple budget: want ErrBudgetExceeded, got %v", err)
	}
	if b.Buffered() != 700 {
		t.Fatalf("failed Open left %d tuples charged beside the holder's 700", b.Buffered()-700)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Buffered() != 0 {
		t.Fatalf("%d tuples still charged after Close", b.Buffered())
	}
	out, err := Collect(other)
	if err != nil || len(out) != 700 {
		t.Fatalf("after the release the second sort must run: %d tuples, err %v", len(out), err)
	}
	if b.Buffered() != 0 {
		t.Fatalf("%d tuples still charged after the second sort closed", b.Buffered())
	}
}

// TestSortAnalyzeGauges: EXPLAIN ANALYZE sees how much a Sort buffered
// against how much its consumer read, during the run and after Close.
func TestSortAnalyzeGauges(t *testing.T) {
	sch, tups := buildRankedInput(900, 10, 1)
	a := Analyze(NewSortByScore(FromTuples(sch, tups), expr.Col("A", "score")))
	if _, err := CollectK(a, 25); err != nil {
		t.Fatal(err)
	}
	if st := a.ExecStats(); st.SortBuffered != 900 || st.SortEmitted != 25 {
		t.Fatalf("buffered=%d emitted=%d, want 900 and 25", st.SortBuffered, st.SortEmitted)
	}
}

// BenchmarkSortPrefix measures what a consumer reading only a prefix of the
// order pays: a fresh Sort (as the engine compiles one per query) over n
// random scores, read prefix deep, closed. prefix=n is the full drain.
func BenchmarkSortPrefix(b *testing.B) {
	for _, n := range []int{4000, 100000} {
		rng := rand.New(rand.NewSource(int64(n)))
		sch, tups := buildRankedInput(n, 100, 1)
		for _, t := range tups {
			t[1] = relation.Float(rng.Float64())
		}
		for _, prefix := range []int{32, n / 10, n} {
			b.Run(fmt.Sprintf("n=%d/prefix=%d", n, prefix), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := NewSortByScore(FromTuples(sch, tups), expr.Col("A", "score"))
					s.SizeHint = n
					out, err := CollectK(s, prefix)
					if err != nil || len(out) != prefix {
						b.Fatalf("read %d of %d: %v", len(out), prefix, err)
					}
				}
			})
		}
	}
}

package exec

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// tieRel is a relation (id INT, k FLOAT, s VARCHAR) whose keys repeat: k
// spells each of 0..5 both as Int and as Float (0 also as -0), s draws from
// four strings, and both hold NULLs. id is the heap position.
func tieRel(name string, n int, seed int64) *relation.Relation {
	rel := relation.New(name, relation.NewSchema(
		relation.Column{Table: name, Name: "id", Kind: relation.KindInt},
		relation.Column{Table: name, Name: "k", Kind: relation.KindFloat},
		relation.Column{Table: name, Name: "s", Kind: relation.KindString},
	))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var k relation.Value
		switch v := rng.Intn(6); rng.Intn(4) {
		case 0:
			k = relation.Int(int64(v))
		case 1:
			k = relation.Float(float64(v))
			if v == 0 {
				k = relation.Float(math.Copysign(0, -1))
			}
		case 2:
			k = relation.Float(float64(v))
		}
		s := relation.String_(string(rune('a' + rng.Intn(4))))
		if rng.Intn(8) == 0 {
			s = relation.Null()
		}
		rel.MustAppend(relation.Tuple{relation.Int(int64(i)), k, s})
	}
	return rel
}

// ascendingIDs is the order an ascending index scan over column col must
// deliver: the non-NULL rows by key, ties in heap order.
func ascendingIDs(rel *relation.Relation, col int) []int64 {
	var rows []relation.Tuple
	for _, t := range rel.Tuples() {
		if !t[col].IsNull() {
			rows = append(rows, t)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i][col].Compare(rows[j][col]) < 0 })
	ids := make([]int64, len(rows))
	for i, t := range rows {
		ids[i] = t[0].AsInt()
	}
	return ids
}

// scanIDs drains op both batch-at-a-time and tuple-at-a-time and returns the
// ids, failing the test if the two drains disagree.
func scanIDs(t *testing.T, op Operator) []int64 {
	t.Helper()
	batch, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	tuple, err := CollectPerTupleCtx(context.Background(), op)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(tuple) {
		t.Fatalf("batch drain %d rows, tuple drain %d", len(batch), len(tuple))
	}
	ids := make([]int64, len(batch))
	for i := range batch {
		if batch[i][0] != tuple[i][0] {
			t.Fatalf("row %d: batch drain id %v, tuple drain %v", i, batch[i][0], tuple[i][0])
		}
		ids[i] = batch[i][0].AsInt()
	}
	return ids
}

func sameIDs(t *testing.T, what string, got, want []int64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d rows, want %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
}

// TestIndexScanTieOrder pins the order index access delivers rows in, ties
// included: ascending scans return equal keys in heap order, descending
// scans the exact reverse of ascending (equal keys in reverse heap order),
// with Int and Float spellings of one number, and -0 and +0, one key. Range
// scans return the ascending order restricted to [Lo, Hi], each bound
// inclusive and optional. An empty relation and an all-NULL column scan
// empty.
func TestIndexScanTieOrder(t *testing.T) {
	rel := tieRel("R", 400, 11)
	cat := catalog.New()
	cat.AddTable(rel)
	for _, col := range []struct {
		name   string
		pos    int
		lo, hi relation.Value
	}{
		{"k", 1, relation.Int(2), relation.Float(4)},
		{"s", 2, relation.String_("b"), relation.String_("c")},
	} {
		idx, err := cat.CreateIndex("R", col.name, false)
		if err != nil {
			t.Fatal(err)
		}
		asc := ascendingIDs(rel, col.pos)
		desc := make([]int64, len(asc))
		for i, id := range asc {
			desc[len(asc)-1-i] = id
		}
		sameIDs(t, col.name+" ascending", scanIDs(t, NewIndexScan(rel, idx, false)), asc)
		sameIDs(t, col.name+" descending", scanIDs(t, NewIndexScan(rel, idx, true)), desc)

		inRange := func(hasLo, hasHi bool) []int64 {
			var want []int64
			for _, id := range asc {
				k := rel.Tuple(int(id))[col.pos]
				if (!hasLo || k.Compare(col.lo) >= 0) && (!hasHi || k.Compare(col.hi) <= 0) {
					want = append(want, id)
				}
			}
			return want
		}
		for _, b := range []struct {
			name         string
			hasLo, hasHi bool
		}{{"[lo,hi]", true, true}, {"[lo,)", true, false}, {"(,hi]", false, true}, {"(,)", false, false}} {
			scan := NewIndexRangeScan(rel, idx, col.lo, col.hi, b.hasLo, b.hasHi)
			sameIDs(t, col.name+" range "+b.name, scanIDs(t, scan), inRange(b.hasLo, b.hasHi))
		}
		// A point range: Lo = Hi, spelled in the other numeric kind.
		if col.pos == 1 {
			scan := NewIndexRangeScan(rel, idx, relation.Float(3), relation.Int(3), true, true)
			var want []int64
			for _, id := range asc {
				if rel.Tuple(int(id))[1].Equal(relation.Int(3)) {
					want = append(want, id)
				}
			}
			sameIDs(t, "k point range", scanIDs(t, scan), want)
		}
	}

	empty := tieRel("R", 0, 1)
	nulls := relation.New("N", empty.Schema())
	for i := 0; i < 5; i++ {
		nulls.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Null(), relation.Null()})
	}
	for _, r := range []*relation.Relation{empty, nulls} {
		c := catalog.New()
		c.AddTable(r)
		idx, err := c.CreateIndex(r.Name, "k", false)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Operator{
			NewIndexScan(r, idx, false), NewIndexScan(r, idx, true),
			NewIndexRangeScan(r, idx, relation.Int(0), relation.Int(9), true, true),
			NewIndexRangeScan(r, idx, relation.Value{}, relation.Value{}, false, false),
		} {
			sameIDs(t, r.Name+" with no indexed key", scanIDs(t, op), nil)
		}
	}
}

// joinPairs drains a join of an outer and an inner tieRel-shaped input and
// returns its (outer id, inner id) pairs in output order; innerFirst says
// the inner relation's columns come first in the joined tuple.
func joinPairs(t *testing.T, op Operator, innerFirst bool) [][2]int64 {
	t.Helper()
	rows, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][2]int64, len(rows))
	for i, r := range rows {
		o, in := r[0].AsInt(), r[3].AsInt()
		if innerFirst {
			o, in = in, o
		}
		out[i] = [2]int64{o, in}
	}
	return out
}

// nestedPairs is the brute-force equi-join on column k: outer rows in heap
// order, each followed by its matching inner rows in heap order. NULL and
// NaN keys match nothing.
func nestedPairs(outer, inner *relation.Relation) [][2]int64 {
	var out [][2]int64
	for _, o := range outer.Tuples() {
		for _, in := range inner.Tuples() {
			a, b := o[1], in[1]
			if a.IsNull() || b.IsNull() || a.AsFloat() != b.AsFloat() {
				continue
			}
			out = append(out, [2]int64{o[0].AsInt(), in[0].AsInt()})
		}
	}
	return out
}

func samePairs(t *testing.T, what string, got, want [][2]int64) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %d pairs, want %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
}

// TestIndexServesAppendedRows: an index created before rows are appended to
// its heap must serve the grown heap, as a sequential scan does — index
// scans, range scans and index joins alike.
func TestIndexServesAppendedRows(t *testing.T) {
	rel := tieRel("R", 60, 5)
	cat := catalog.New()
	cat.AddTable(rel)
	idx, err := cat.CreateIndex("R", "k", false)
	if err != nil {
		t.Fatal(err)
	}
	outer := tieRel("L", 30, 6)
	check := func(when string) {
		asc := ascendingIDs(rel, 1)
		desc := make([]int64, len(asc))
		for i, id := range asc {
			desc[len(asc)-1-i] = id
		}
		sameIDs(t, when+": ascending", scanIDs(t, NewIndexScan(rel, idx, false)), asc)
		sameIDs(t, when+": descending", scanIDs(t, NewIndexScan(rel, idx, true)), desc)
		var want []int64
		for _, id := range asc {
			if k := rel.Tuple(int(id))[1]; k.Compare(relation.Int(1)) >= 0 && k.Compare(relation.Int(3)) <= 0 {
				want = append(want, id)
			}
		}
		sameIDs(t, when+": range", scanIDs(t, NewIndexRangeScan(rel, idx, relation.Int(1), relation.Int(3), true, true)), want)
		j := NewIndexNLJoin(NewSeqScan(outer), rel, idx, expr.Col("L", "k"), nil)
		samePairs(t, when+": index join", joinPairs(t, j, false), nestedPairs(outer, rel))
	}
	check("as created")
	for i := 0; i < 3; i++ {
		rel.MustAppend(relation.Tuple{relation.Int(int64(rel.Cardinality())), relation.Int(int64(2 * i)), relation.String_("z")})
		check("after an append")
	}
}

// TestIndexJoinNaNKeys: a NaN key equals nothing, so an index join over a
// NaN-keyed inner returns exactly the rows a hash join does — the NaN inner
// row joins no outer key, and a NaN outer key joins no inner row.
func TestIndexJoinNaNKeys(t *testing.T) {
	keyed := func(name string, keys ...float64) *relation.Relation {
		rel := relation.New(name, tieRel(name, 0, 0).Schema())
		for i, k := range keys {
			rel.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.Float(k), relation.String_("x")})
		}
		return rel
	}
	nan := math.NaN()
	inner := keyed("R", 1, 2, nan, 3)
	outer := keyed("L", 3, nan, 1, 4, 2, 1)
	cat := catalog.New()
	cat.AddTable(inner)
	idx, err := cat.CreateIndex("R", "k", false)
	if err != nil {
		t.Fatal(err)
	}
	want := nestedPairs(outer, inner)
	inl := NewIndexNLJoin(NewSeqScan(outer), inner, idx, expr.Col("L", "k"), nil)
	samePairs(t, "index join", joinPairs(t, inl, false), want)
	hj := NewHashJoin(NewSeqScan(inner), NewSeqScan(outer), expr.Col("R", "k"), expr.Col("L", "k"), nil)
	samePairs(t, "hash join", joinPairs(t, hj, true), want)
}

// TestIndexScanAllocs: opening, draining and closing an index scan or an
// index range scan allocates nothing — the scan walks the index's sorted
// image in place.
func TestIndexScanAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are only stable outside -race")
	}
	rel := tieRel("R", 500, 9)
	cat := catalog.New()
	cat.AddTable(rel)
	idx, err := cat.CreateIndex("R", "k", false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		op   Operator
	}{
		{"IndexScan", NewIndexScan(rel, idx, true)},
		{"IndexRangeScan", NewIndexRangeScan(rel, idx, relation.Int(1), relation.Int(4), true, true)},
	} {
		rows := 0
		allocs := testing.AllocsPerRun(20, func() {
			if err := tc.op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			for rows = 0; ; rows++ {
				_, ok, err := tc.op.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			if err := tc.op.Close(); err != nil {
				t.Fatal(err)
			}
		})
		if rows == 0 {
			t.Fatalf("%s returned no rows", tc.name)
		}
		if allocs != 0 {
			t.Errorf("%s: Open, drain and Close allocate %.0f objects, want 0", tc.name, allocs)
		}
	}
}

// TestIndexScanRidBeyondRelation: an index whose image holds more rows than
// the relation the scan reads (here, an index built on a longer copy) fails
// the scan with an error naming the row id, on either drain and for plain,
// descending and range scans alike, instead of indexing past the heap.
func TestIndexScanRidBeyondRelation(t *testing.T) {
	long := tieRel("R", 60, 12)
	short := relation.New("R", long.Schema())
	for _, tup := range long.Tuples()[:10] {
		short.MustAppend(tup)
	}
	cat := catalog.New()
	cat.AddTable(long)
	idx, err := cat.CreateIndex("R", "k", false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		op   Operator
	}{
		{"ascending", NewIndexScan(short, idx, false)},
		{"descending", NewIndexScan(short, idx, true)},
		{"range", NewIndexRangeScan(short, idx, relation.Int(0), relation.Int(5), true, true)},
	} {
		for _, drain := range []struct {
			name    string
			collect func(Operator) ([]relation.Tuple, error)
		}{
			{"batch", Collect},
			{"tuple", func(op Operator) ([]relation.Tuple, error) { return CollectPerTupleCtx(context.Background(), op) }},
		} {
			_, err := drain.collect(tc.op)
			if err == nil || !strings.Contains(err.Error(), "beyond relation") {
				t.Errorf("%s scan, %s drain: err = %v, want a rid-beyond-relation error", tc.name, drain.name, err)
			}
		}
	}
}

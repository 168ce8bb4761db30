package exec

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

func aggInput() *relation.Relation {
	return makeRel("A", [][3]float64{
		{0, 1, 0.5}, {1, 1, 0.7}, {2, 2, 0.2}, {3, 2, 0.4}, {4, 2, 0.9}, {5, 3, 0.1},
	})
}

func stdAggs() []AggSpec {
	return []AggSpec{
		{Func: AggCount, As: "cnt"},
		{Func: AggSum, Arg: expr.Col("A", "score"), As: "total"},
		{Func: AggMin, Arg: expr.Col("A", "score"), As: "lo"},
		{Func: AggMax, Arg: expr.Col("A", "score"), As: "hi"},
		{Func: AggAvg, Arg: expr.Col("A", "score"), As: "mean"},
	}
}

func checkAggRows(t *testing.T, got []relation.Tuple) {
	t.Helper()
	if len(got) != 3 {
		t.Fatalf("groups = %d, want 3", len(got))
	}
	// Group key 1: count 2, sum 1.2, min 0.5, max 0.7, avg 0.6.
	r := got[0]
	if r[0].AsInt() != 1 || r[1].AsInt() != 2 ||
		math.Abs(r[2].AsFloat()-1.2) > 1e-9 ||
		r[3].AsFloat() != 0.5 || r[4].AsFloat() != 0.7 ||
		math.Abs(r[5].AsFloat()-0.6) > 1e-9 {
		t.Fatalf("group 1 = %v", r)
	}
	// Group key 3: single row.
	r = got[2]
	if r[0].AsInt() != 3 || r[1].AsInt() != 1 || r[3].AsFloat() != 0.1 {
		t.Fatalf("group 3 = %v", r)
	}
}

func TestHashAggregate(t *testing.T) {
	h := NewHashAggregate(NewSeqScan(aggInput()), []expr.ColRef{expr.Col("A", "key")}, stdAggs())
	got, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	checkAggRows(t, got)
	if h.Groups != 3 {
		t.Errorf("Groups = %d", h.Groups)
	}
	if h.Schema().Len() != 6 || h.Schema().Column(1).Name != "cnt" {
		t.Errorf("schema = %s", h.Schema())
	}
	if h.Schema().Column(1).Kind != relation.KindInt {
		t.Error("COUNT output must be INTEGER")
	}
}

func TestSortedAggregateMatchesHash(t *testing.T) {
	in := NewSort(NewSeqScan(aggInput()), SortKey{E: expr.Col("A", "key")})
	s := NewSortedAggregate(in, []expr.ColRef{expr.Col("A", "key")}, stdAggs())
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	checkAggRows(t, got)
}

func TestAggregateNoGroups(t *testing.T) {
	// Whole-input aggregation via HashAggregate with empty GroupBy.
	h := NewHashAggregate(NewSeqScan(aggInput()), nil, []AggSpec{
		{Func: AggCount, As: "n"},
		{Func: AggSum, Arg: expr.Col("A", "score"), As: "s"},
	})
	got, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].AsInt() != 6 {
		t.Fatalf("global agg = %v", got)
	}
	// Empty input still yields one row (COUNT = 0, SUM = NULL).
	h = NewHashAggregate(NewSeqScan(makeRel("A", nil)), nil, []AggSpec{
		{Func: AggCount, As: "n"},
		{Func: AggSum, Arg: expr.Col("A", "score"), As: "s"},
	})
	got, err = Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].AsInt() != 0 || !got[0][1].IsNull() {
		t.Fatalf("empty global agg = %v", got)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	sch := relation.NewSchema(
		relation.Column{Table: "N", Name: "g", Kind: relation.KindInt},
		relation.Column{Table: "N", Name: "x", Kind: relation.KindFloat},
	)
	rel := relation.New("N", sch)
	rel.MustAppend(relation.Tuple{relation.Int(1), relation.Float(2)})
	rel.MustAppend(relation.Tuple{relation.Int(1), relation.Null()})
	h := NewHashAggregate(NewSeqScan(rel), []expr.ColRef{expr.Col("N", "g")}, []AggSpec{
		{Func: AggCount, Arg: expr.Col("N", "x"), As: "cx"}, // COUNT(x) skips NULL
		{Func: AggCount, As: "call"},                        // COUNT(*) does not
		{Func: AggAvg, Arg: expr.Col("N", "x"), As: "ax"},
	})
	got, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	r := got[0]
	if r[1].AsInt() != 1 || r[2].AsInt() != 2 || r[3].AsFloat() != 2 {
		t.Fatalf("null agg = %v", r)
	}
}

func TestSortedAggregateRequiresGroups(t *testing.T) {
	s := NewSortedAggregate(NewSeqScan(aggInput()), nil, stdAggs())
	if err := s.Open(context.Background()); err == nil {
		t.Error("sorted aggregate without groups must fail")
	}
}

func TestSortedAggregateStreamsInOrder(t *testing.T) {
	in := NewSort(NewSeqScan(aggInput()), SortKey{E: expr.Col("A", "key")})
	s := NewSortedAggregate(in, []expr.ColRef{expr.Col("A", "key")}, stdAggs()[:1])
	if err := s.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for {
		r, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		keys = append(keys, r[0].AsInt())
	}
	_ = s.Close()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 2 || keys[2] != 3 {
		t.Fatalf("streamed group order = %v", keys)
	}
}

func TestMultiColumnGrouping(t *testing.T) {
	rel := makeRel("A", [][3]float64{
		{0, 1, 1}, {0, 1, 2}, {0, 2, 3}, {1, 1, 4},
	})
	groupBy := []expr.ColRef{expr.Col("A", "id"), expr.Col("A", "key")}
	aggs := []AggSpec{{Func: AggSum, Arg: expr.Col("A", "score"), As: "s"}}
	h := NewHashAggregate(NewSeqScan(rel), groupBy, aggs)
	hg, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(hg) != 3 {
		t.Fatalf("groups = %d, want 3", len(hg))
	}
	in := NewSort(NewSeqScan(rel),
		SortKey{E: expr.Col("A", "id")}, SortKey{E: expr.Col("A", "key")})
	s := NewSortedAggregate(in, groupBy, aggs)
	sg, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(sg) != 3 {
		t.Fatalf("sorted groups = %d", len(sg))
	}
	for i := range hg {
		for j := range hg[i] {
			if !hg[i][j].Equal(sg[i][j]) {
				t.Fatalf("hash/sorted mismatch at %d: %v vs %v", i, hg[i], sg[i])
			}
		}
	}
}

// Property: hash and sorted aggregation agree on random workloads.
func TestAggregatesAgreeProperty(t *testing.T) {
	groupBy := []expr.ColRef{expr.Col("A", "key")}
	aggs := []AggSpec{
		{Func: AggCount, As: "c"},
		{Func: AggSum, Arg: expr.Col("A", "score"), As: "s"},
		{Func: AggMax, Arg: expr.Col("A", "score"), As: "m"},
	}
	f := func(seed int64) bool {
		rel := workload.Ranked(workload.RankedConfig{Name: "A", N: 200, Selectivity: 0.1, Seed: seed})
		hg, err := Collect(NewHashAggregate(NewSeqScan(rel), groupBy, aggs))
		if err != nil {
			return false
		}
		in := NewSort(NewSeqScan(rel), SortKey{E: expr.Col("A", "key")})
		sg, err := Collect(NewSortedAggregate(in, groupBy, aggs))
		if err != nil {
			return false
		}
		if len(hg) != len(sg) {
			return false
		}
		for i := range hg {
			for j := range hg[i] {
				if hg[i][j].Numeric() && sg[i][j].Numeric() {
					if math.Abs(hg[i][j].AsFloat()-sg[i][j].AsFloat()) > 1e-9 {
						return false
					}
				} else if !hg[i][j].Equal(sg[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParseAggFunc(t *testing.T) {
	if f, ok := ParseAggFunc("sum"); !ok || f != AggSum {
		t.Error("sum")
	}
	if _, ok := ParseAggFunc("median"); ok {
		t.Error("median should be unknown")
	}
	if AggCount.Kind(relation.KindFloat) != relation.KindInt {
		t.Error("COUNT kind")
	}
	if AggMin.Kind(relation.KindString) != relation.KindString {
		t.Error("MIN preserves kind")
	}
	if AggSpec(AggSpec{Func: AggCount}).String() != "COUNT(*)" {
		t.Error("spec string")
	}
}

package exec

import (
	"context"
	"errors"
	"sort"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// makeRel builds a small relation (id INT, key INT, score FLOAT).
func makeRel(name string, rows [][3]float64) *relation.Relation {
	sch := relation.NewSchema(
		relation.Column{Table: name, Name: "id", Kind: relation.KindInt},
		relation.Column{Table: name, Name: "key", Kind: relation.KindInt},
		relation.Column{Table: name, Name: "score", Kind: relation.KindFloat},
	)
	rel := relation.New(name, sch)
	for _, r := range rows {
		rel.MustAppend(relation.Tuple{
			relation.Int(int64(r[0])), relation.Int(int64(r[1])), relation.Float(r[2]),
		})
	}
	return rel
}

func TestSeqScan(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 1, 0.5}, {1, 2, 0.7}})
	got, err := Collect(NewSeqScan(rel))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][0].AsInt() != 0 || got[1][0].AsInt() != 1 {
		t.Fatalf("SeqScan = %v", got)
	}
}

func TestIndexScanBothDirections(t *testing.T) {
	cat, names := workload.RankedSet(1, workload.RankedConfig{N: 500, Selectivity: 0.1, Seed: 3})
	tab, _ := cat.Table(names[0])
	idx := cat.IndexOn(names[0], "score")

	asc, err := Collect(NewIndexScan(tab.Rel, idx, false))
	if err != nil {
		t.Fatal(err)
	}
	desc, err := Collect(NewIndexScan(tab.Rel, idx, true))
	if err != nil {
		t.Fatal(err)
	}
	if len(asc) != 500 || len(desc) != 500 {
		t.Fatalf("lengths %d/%d", len(asc), len(desc))
	}
	for i := 1; i < len(asc); i++ {
		if asc[i][2].AsFloat() < asc[i-1][2].AsFloat() {
			t.Fatal("ascending scan out of order")
		}
		if desc[i][2].AsFloat() > desc[i-1][2].AsFloat() {
			t.Fatal("descending scan out of order")
		}
	}
	// IndexScan without index errors at Open.
	bad := NewIndexScan(tab.Rel, nil, true)
	if err := bad.Open(context.Background()); err == nil {
		t.Error("index scan without index should fail")
	}
}

func TestSortOperator(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 3, 0.2}, {1, 1, 0.9}, {2, 2, 0.5}, {3, 1, 0.9}})
	s := NewSortByScore(NewSeqScan(rel), expr.Col("A", "score"))
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.9, 0.9, 0.5, 0.2}
	for i, w := range want {
		if got[i][2].AsFloat() != w {
			t.Fatalf("sorted[%d] = %v, want %v", i, got[i][2], w)
		}
	}
	// Stability: the two 0.9 rows keep heap order (ids 1 then 3).
	if got[0][0].AsInt() != 1 || got[1][0].AsInt() != 3 {
		t.Error("sort should be stable")
	}
	// Multi-key: key asc then score desc.
	m := NewSort(NewSeqScan(rel),
		SortKey{E: expr.Col("A", "key")},
		SortKey{E: expr.Col("A", "score"), Desc: true})
	got, err = Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{1, 1, 2, 3}
	for i, w := range keys {
		if got[i][1].AsInt() != w {
			t.Fatalf("multikey[%d].key = %v, want %v", i, got[i][1], w)
		}
	}
}

func TestFilterProjectLimit(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 1, 0.1}, {1, 2, 0.6}, {2, 3, 0.8}})
	f := NewFilter(NewSeqScan(rel), expr.Bin(expr.OpGt, expr.Col("A", "score"), expr.FloatLit(0.5)))
	p := NewProject(f,
		ProjectItem{E: expr.Col("A", "id"), As: "x", Kind: relation.KindInt},
		ProjectItem{E: expr.Bin(expr.OpMul, expr.Col("A", "score"), expr.FloatLit(10)), As: "s10", Kind: relation.KindFloat},
	)
	l := NewLimit(p, 1)
	got, err := Collect(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][0].AsInt() != 1 || got[0][1].AsFloat() != 6 {
		t.Fatalf("pipeline = %v", got)
	}
	if l.Schema().Column(0).Name != "x" {
		t.Error("projected schema name")
	}
	if err := NewLimit(p, -1).Open(context.Background()); err == nil {
		t.Error("negative limit must fail")
	}
}

func TestLimitZeroAndExhaustion(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 1, 0.1}})
	got, err := Collect(NewLimit(NewSeqScan(rel), 0))
	if err != nil || len(got) != 0 {
		t.Fatalf("limit 0 = %v, %v", got, err)
	}
	got, err = Collect(NewLimit(NewSeqScan(rel), 10))
	if err != nil || len(got) != 1 {
		t.Fatalf("limit beyond input = %v, %v", got, err)
	}
}

func TestRankAssign(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 1, 0.9}, {1, 2, 0.5}})
	r := NewRankAssign(NewSeqScan(rel), expr.Col("A", "score"))
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatal("rank output size")
	}
	if got[0][3].AsFloat() != 0.9 || got[0][4].AsInt() != 1 {
		t.Fatalf("rank row 0 = %v", got[0])
	}
	if got[1][4].AsInt() != 2 {
		t.Fatalf("rank row 1 = %v", got[1])
	}
	if r.Schema().Len() != 5 {
		t.Error("rank schema should add 2 columns")
	}
}

// counted wraps in with WithProgress, the production counting wrapper, and
// returns a reader of how many tuples have been pulled through it.
func counted(in Operator) (Operator, func() int) {
	var p Progress
	return WithProgress(in, &p), func() int { return int(p.Snapshot().Emitted) }
}

// errOp is a degenerate operator that fails on Open.
type errOp struct{ err error }

// errOperator returns an operator whose Open fails with message msg.
func errOperator(msg string) Operator { return errOp{errors.New(msg)} }

func (e errOp) Schema() *relation.Schema            { return relation.NewSchema() }
func (e errOp) Open(context.Context) error          { return e.err }
func (e errOp) Next() (relation.Tuple, bool, error) { return nil, false, e.err }
func (e errOp) Close() error                        { return nil }

func TestCounterAndHelpers(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 1, 0.1}, {1, 2, 0.2}, {2, 3, 0.3}})
	c, n := counted(NewSeqScan(rel))
	got, err := CollectK(c, 2)
	if err != nil || len(got) != 2 || n() != 2 {
		t.Fatalf("CollectK/WithProgress: %v %v count=%d", got, err, n())
	}
	if err := errOperator("boom").Open(context.Background()); err == nil {
		t.Error("errOperator should fail")
	}
	if _, err := Collect(errOperator("boom")); err == nil {
		t.Error("Collect should propagate Open error")
	}
}

// referenceJoin computes the expected equi-join with optional residual by
// brute force.
func referenceJoin(t *testing.T, l, r *relation.Relation, lKeyIdx, rKeyIdx int) []relation.Tuple {
	t.Helper()
	var out []relation.Tuple
	for _, lt := range l.Tuples() {
		for _, rt := range r.Tuples() {
			if lt[lKeyIdx].Equal(rt[rKeyIdx]) {
				out = append(out, lt.Concat(rt))
			}
		}
	}
	return out
}

// canonicalize sorts join output for order-insensitive comparison.
func canonicalize(ts []relation.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

func equalSets(a, b []relation.Tuple) bool {
	ca, cb := canonicalize(a), canonicalize(b)
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		if ca[i] != cb[i] {
			return false
		}
	}
	return true
}

// TestAllJoinsAgree drives every join implementation on random inputs and
// checks they produce exactly the reference result set.
func TestAllJoinsAgree(t *testing.T) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 300, Selectivity: 0.05, Seed: 21})
	b := workload.Ranked(workload.RankedConfig{Name: "B", N: 250, Selectivity: 0.05, Seed: 22})
	want := referenceJoin(t, a, b, 1, 1)
	if len(want) == 0 {
		t.Fatal("degenerate test: no join results")
	}
	pred := expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key"))
	lKey, rKey := expr.Col("A", "key"), expr.Col("B", "key")

	cat := catalog.New()
	cat.AddTable(b)
	bIdx, err := cat.CreateIndex("B", "key", false)
	if err != nil {
		t.Fatal(err)
	}

	ops := map[string]Operator{
		"nlj":  NewNestedLoopsJoin(NewSeqScan(a), NewSeqScan(b), pred),
		"inlj": NewIndexNLJoin(NewSeqScan(a), b, bIdx, lKey, nil),
		"hash": NewHashJoin(NewSeqScan(a), NewSeqScan(b), lKey, rKey, nil),
		"smj": NewSortMergeJoin(
			NewSort(NewSeqScan(a), SortKey{E: lKey}),
			NewSort(NewSeqScan(b), SortKey{E: rKey}),
			lKey, rKey, nil),
	}
	for name, op := range ops {
		got, err := Collect(op)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalSets(got, want) {
			t.Errorf("%s: %d results, want %d (sets differ)", name, len(got), len(want))
		}
	}
}

// TestJoinsWithResidual checks residual predicates are applied by every join.
func TestJoinsWithResidual(t *testing.T) {
	a := workload.Ranked(workload.RankedConfig{Name: "A", N: 120, Selectivity: 0.1, Seed: 31})
	b := workload.Ranked(workload.RankedConfig{Name: "B", N: 100, Selectivity: 0.1, Seed: 32})
	res := expr.Bin(expr.OpGt,
		expr.Bin(expr.OpAdd, expr.Col("A", "score"), expr.Col("B", "score")),
		expr.FloatLit(1.0))
	var want []relation.Tuple
	for _, lt := range a.Tuples() {
		for _, rt := range b.Tuples() {
			if lt[1].Equal(rt[1]) && lt[2].AsFloat()+rt[2].AsFloat() > 1.0 {
				want = append(want, lt.Concat(rt))
			}
		}
	}
	lKey, rKey := expr.Col("A", "key"), expr.Col("B", "key")
	pred := expr.And(expr.Bin(expr.OpEq, lKey, rKey), res)

	cat := catalog.New()
	cat.AddTable(b)
	bIdx, _ := cat.CreateIndex("B", "key", false)

	ops := map[string]Operator{
		"nlj":  NewNestedLoopsJoin(NewSeqScan(a), NewSeqScan(b), pred),
		"inlj": NewIndexNLJoin(NewSeqScan(a), b, bIdx, lKey, res),
		"hash": NewHashJoin(NewSeqScan(a), NewSeqScan(b), lKey, rKey, res),
		"smj": NewSortMergeJoin(
			NewSort(NewSeqScan(a), SortKey{E: lKey}),
			NewSort(NewSeqScan(b), SortKey{E: rKey}),
			lKey, rKey, res),
	}
	for name, op := range ops {
		got, err := Collect(op)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalSets(got, want) {
			t.Errorf("%s: %d results, want %d", name, len(got), len(want))
		}
	}
}

func TestHashJoinPreservesProbeOrder(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, 0}, {1, 2, 0}})
	b := makeRel("B", [][3]float64{{0, 2, 0.9}, {1, 1, 0.8}, {2, 2, 0.7}, {3, 1, 0.6}})
	// Probe side (B) streams; output B-ids must appear in B order.
	j := NewHashJoin(NewSeqScan(a), NewSeqScan(b), expr.Col("A", "key"), expr.Col("B", "key"), nil)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	var bids []int64
	for _, tup := range got {
		bids = append(bids, tup[3].AsInt())
	}
	for i := 1; i < len(bids); i++ {
		if bids[i] < bids[i-1] {
			t.Fatalf("probe order violated: %v", bids)
		}
	}
	if j.MaxTable != 2 {
		t.Errorf("MaxTable = %d", j.MaxTable)
	}
}

func TestNLJPreservesOuterOrder(t *testing.T) {
	a := makeRel("A", [][3]float64{{2, 1, 0}, {0, 1, 0}, {1, 1, 0}})
	b := makeRel("B", [][3]float64{{0, 1, 0}, {1, 1, 0}})
	j := NewNestedLoopsJoin(NewSeqScan(a), NewSeqScan(b),
		expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key")))
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	wantOuter := []int64{2, 2, 0, 0, 1, 1}
	for i, tup := range got {
		if tup[0].AsInt() != wantOuter[i] {
			t.Fatalf("outer order violated at %d: %v", i, got)
		}
	}
}

func TestSortMergeDuplicateKeysBothSides(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 5, 0}, {1, 5, 0}, {2, 7, 0}})
	b := makeRel("B", [][3]float64{{0, 5, 0}, {1, 5, 0}, {2, 5, 0}, {3, 8, 0}})
	j := NewSortMergeJoin(
		NewSort(NewSeqScan(a), SortKey{E: expr.Col("A", "key")}),
		NewSort(NewSeqScan(b), SortKey{E: expr.Col("B", "key")}),
		expr.Col("A", "key"), expr.Col("B", "key"), nil)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	// 2 left × 3 right matches on key 5 = 6 results.
	if len(got) != 6 {
		t.Fatalf("SMJ duplicates: %d results, want 6", len(got))
	}
}

func TestJoinNullKeysNeverMatch(t *testing.T) {
	sch := relation.NewSchema(
		relation.Column{Table: "A", Name: "k", Kind: relation.KindInt},
	)
	a := relation.New("A", sch)
	a.MustAppend(relation.Tuple{relation.Null()})
	a.MustAppend(relation.Tuple{relation.Int(1)})
	schB := relation.NewSchema(
		relation.Column{Table: "B", Name: "k", Kind: relation.KindInt},
	)
	b := relation.New("B", schB)
	b.MustAppend(relation.Tuple{relation.Null()})
	b.MustAppend(relation.Tuple{relation.Int(1)})
	j := NewHashJoin(NewSeqScan(a), NewSeqScan(b), expr.Col("A", "k"), expr.Col("B", "k"), nil)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("NULL keys must not join: got %d results", len(got))
	}
}

func TestIndexRangeScan(t *testing.T) {
	cat, names := workload.RankedSet(1, workload.RankedConfig{N: 300, Selectivity: 0.1, Seed: 55})
	tab, _ := cat.Table(names[0])
	idx := cat.IndexOn(names[0], "key")

	// Closed range [3, 5].
	s := NewIndexRangeScan(tab.Rel, idx, relation.Int(3), relation.Int(5), true, true)
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	prev := int64(-1)
	for _, tup := range tab.Rel.Tuples() {
		if k := tup[1].AsInt(); k >= 3 && k <= 5 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("range scan returned %d, want %d", len(got), want)
	}
	for _, tup := range got {
		k := tup[1].AsInt()
		if k < 3 || k > 5 {
			t.Fatalf("key %d outside range", k)
		}
		if k < prev {
			t.Fatal("range scan out of key order")
		}
		prev = k
	}

	// Open below: key <= 1.
	s = NewIndexRangeScan(tab.Rel, idx, relation.Value{}, relation.Int(1), false, true)
	got, err = Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range got {
		if tup[1].AsInt() > 1 {
			t.Fatal("open-low scan leaked high keys")
		}
	}

	// Open above: key >= 8.
	s = NewIndexRangeScan(tab.Rel, idx, relation.Int(8), relation.Value{}, true, false)
	got, err = Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range got {
		if tup[1].AsInt() < 8 {
			t.Fatal("open-high scan leaked low keys")
		}
	}

	// Missing index errors at Open.
	bad := NewIndexRangeScan(tab.Rel, nil, relation.Int(0), relation.Int(1), true, true)
	if err := bad.Open(context.Background()); err == nil {
		t.Error("range scan without index must fail")
	}
}

// Error injection: every composite operator must propagate child failures
// instead of swallowing them.
func TestErrorPropagation(t *testing.T) {
	good := makeRel("A", [][3]float64{{0, 1, 0.5}})
	bad := errOperator("boom")
	lKey, rKey := expr.Col("A", "key"), expr.Col("A", "key")
	score := expr.Col("A", "score")

	ops := map[string]Operator{
		"sort":    NewSort(bad, SortKey{E: score}),
		"filter":  NewFilter(bad, expr.BoolLit(true)),
		"limit":   NewLimit(bad, 5),
		"rank":    NewRankAssign(bad, score),
		"topk":    NewTopK(bad, score, 3),
		"hashagg": NewHashAggregate(bad, nil, []AggSpec{{Func: AggCount, As: "c"}}),
		"nlj-l":   NewNestedLoopsJoin(bad, NewSeqScan(good), nil),
		"nlj-r":   NewNestedLoopsJoin(NewSeqScan(good), bad, nil),
		"hash-l":  NewHashJoin(bad, NewSeqScan(good), lKey, rKey, nil),
		"hash-r":  NewHashJoin(NewSeqScan(good), bad, lKey, rKey, nil),
		"smj-l":   NewSortMergeJoin(bad, NewSeqScan(good), lKey, rKey, nil),
		"hrjn-l":  NewHRJN(bad, NewSeqScan(good), score, score, lKey, rKey, nil),
		"hrjn-r":  NewHRJN(NewSeqScan(good), bad, score, score, lKey, rKey, nil),
		"nrjn-l":  NewNRJN(bad, NewSeqScan(good), score, score, nil),
		"nrjn-r":  NewNRJN(NewSeqScan(good), bad, score, score, nil),
	}
	for name, op := range ops {
		if _, err := Collect(op); err == nil {
			t.Errorf("%s: child failure swallowed", name)
		}
	}
}

// Binding failures (unknown columns) must surface at Open, not panic.
func TestBindErrorsSurfaceAtOpen(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 1, 0.5}})
	badCol := expr.Col("Z", "nope")
	ops := map[string]Operator{
		"filter":  NewFilter(NewSeqScan(rel), expr.Bin(expr.OpGt, badCol, expr.IntLit(0))),
		"sort":    NewSort(NewSeqScan(rel), SortKey{E: badCol}),
		"project": NewProject(NewSeqScan(rel), ProjectItem{E: badCol, As: "x"}),
		"rank":    NewRankAssign(NewSeqScan(rel), badCol),
		"topk":    NewTopK(NewSeqScan(rel), badCol, 2),
		"hrjn": NewHRJN(NewSeqScan(rel), NewSeqScan(rel),
			badCol, badCol, badCol, badCol, nil),
	}
	for name, op := range ops {
		if err := op.Open(context.Background()); err == nil {
			t.Errorf("%s: bad column accepted at Open", name)
		}
	}
}

func TestTASelectMatchesJoinReference(t *testing.T) {
	cat, names := workload.Corpus(workload.CorpusConfig{Objects: 1500, Features: 3, Seed: 61})
	weights := []float64{0.5, 0.3, 0.2}
	inputs := make([]TAInput, len(names))
	for i, name := range names {
		tab, _ := cat.Table(name)
		inputs[i] = TAInput{
			Rel:      tab.Rel,
			ScoreIdx: cat.IndexOn(name, "score"),
			IDIdx:    cat.IndexOn(name, "id"),
			ScorePos: 1, IDPos: 0,
			Weight: weights[i],
		}
	}
	const k = 8
	ta, err := NewTA(inputs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectK(ta, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != k {
		t.Fatalf("rows = %d", len(got))
	}
	// Reference: brute-force combined scores by object id.
	t0, _ := cat.Table(names[0])
	t1, _ := cat.Table(names[1])
	t2, _ := cat.Table(names[2])
	var ref []float64
	for i := 0; i < 1500; i++ {
		ref = append(ref, 0.5*t0.Rel.Tuple(i)[1].AsFloat()+
			0.3*t1.Rel.Tuple(i)[1].AsFloat()+0.2*t2.Rel.Tuple(i)[1].AsFloat())
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ref)))
	for i, row := range got {
		s := 0.5*row[1].AsFloat() + 0.3*row[3].AsFloat() + 0.2*row[5].AsFloat()
		if mathAbs(s-ref[i]) > 1e-9 {
			t.Fatalf("rank %d: %v, want %v", i, s, ref[i])
		}
	}
	// Early-out: TA must not read all 3*1500 entries.
	if sorted, _ := ta.Accesses(); sorted >= 4500 {
		t.Errorf("TA did no early-out: %d sorted accesses", sorted)
	}
}

func mathAbs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestTASelectSkipsPartialObjects(t *testing.T) {
	// Object 1 is missing from B: it must not appear even though its
	// aggregate-with-zeros might rank.
	a := newTAList("A", []int64{0, 1, 2}, []float64{0.5, 0.99, 0.4}, 1)
	b := newTAList("B", []int64{0, 2}, []float64{0.6, 0.5}, 1)
	ta, err := NewTA([]TAInput{a, b})
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectK(ta, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("rows = %d", len(got))
	}
	for _, row := range got {
		if row[0].AsInt() == 1 {
			t.Fatal("object missing from B must not join")
		}
	}
	// Best full object: id 0 (0.5+0.6=1.1) then id 2 (0.9).
	if got[0][0].AsInt() != 0 || got[1][0].AsInt() != 2 {
		t.Fatalf("order = %v, %v", got[0][0], got[1][0])
	}
}

func TestTASelectValidation(t *testing.T) {
	if _, err := NewTA(nil); err == nil {
		t.Error("no inputs must fail")
	}
	cat, names := workload.Corpus(workload.CorpusConfig{Objects: 10, Features: 1, Seed: 1})
	tab, _ := cat.Table(names[0])
	in := TAInput{Rel: tab.Rel, ScoreIdx: cat.IndexOn(names[0], "score"),
		IDIdx: cat.IndexOn(names[0], "id"), ScorePos: 1, IDPos: 0, Weight: 1}
	if _, err := NewTA(make([]TAInput, maxJoinWidth+1)); err == nil {
		t.Errorf("more than %d inputs must fail", maxJoinWidth)
	}
	for _, drop := range []func(*TAInput){
		func(in *TAInput) { in.IDIdx = nil },
		func(in *TAInput) { in.ScoreIdx = nil },
	} {
		bad := in
		drop(&bad)
		if _, err := NewTA([]TAInput{in, bad}); err == nil {
			t.Error("missing index must fail")
		}
	}
}

package exec

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// lifecycleOp wraps an operator and records Open/Close calls, so tests can
// verify the Operator contract: an Open failure anywhere in a tree must leave
// every successfully-opened child closed again.
type lifecycleOp struct {
	Operator
	opens, closes int
	// ctx is the context of the last Open, so tests can verify a parent
	// forwarded the query context instead of a fresh one.
	ctx context.Context
}

func (l *lifecycleOp) Open(ctx context.Context) error {
	l.opens++
	l.ctx = ctx
	return l.Operator.Open(ctx)
}
func (l *lifecycleOp) Close() error { l.closes++; return l.Operator.Close() }

func (l *lifecycleOp) balanced() bool { return l.opens == l.closes }

// nextErrOp opens fine and fails on the first Next — the shape of a child
// whose materialization (Collect) fails inside a parent's Open.
type nextErrOp struct{ schema *relation.Schema }

func (n nextErrOp) Schema() *relation.Schema   { return n.schema }
func (n nextErrOp) Open(context.Context) error { return nil }
func (n nextErrOp) Next() (relation.Tuple, bool, error) {
	return nil, false, errors.New("next boom")
}
func (n nextErrOp) Close() error { return nil }

// TestOpenFailureClosesOpenedChildren drives every operator whose Open can
// fail after a child was already opened, and asserts no child leaks open.
// Before the fix, a right-input Open failure (or a bind failure) returned
// with the left input still holding its resources. The cancelled cases open
// every operator that works in Open (or, for the lazy rank joins, in its
// first Next calls) under an already-cancelled context: the failure must be
// the typed cancellation error, every child must have been opened under the
// query context, and no shard worker may outlive the call.
func TestOpenFailureClosesOpenedChildren(t *testing.T) {
	// 256 descending-score rows: enough for every poll-on-cadence loop to
	// reach a context check.
	rows := make([][3]float64, 256)
	for i := range rows {
		rows[i] = [3]float64{float64(i), float64(i % 4), 1 - float64(i)/256}
	}
	rel := makeRel("A", rows)
	score := expr.Col("A", "score")
	key := expr.Col("A", "key")
	keyRef := expr.ColRef{Table: "A", Name: "key"}
	eqKey := expr.Bin(expr.OpEq, key, key)
	badCol := expr.Col("Z", "nope")
	bad := errOperator("open boom")
	drainFail := nextErrOp{schema: rel.Schema()}
	count := []AggSpec{{Func: AggCount, As: "c"}}
	byKey := SortKey{E: key}
	byScore := SortKey{E: score, Desc: true}
	cat := catalog.New()
	cat.AddTable(rel)
	scoreIdx, _ := cat.CreateIndex("A", "score", false)
	idIdx, _ := cat.CreateIndex("A", "id", false)
	taIn := TAInput{Rel: rel, ScoreIdx: scoreIdx, IDIdx: idIdx, ScorePos: 2, IDPos: 0, Weight: 1}
	must := func(op Operator, err error) Operator {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return op
	}

	track := func() *lifecycleOp {
		return &lifecycleOp{Operator: FromTuples(rel.Schema(), rel.Tuples())}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	goroutines := runtime.NumGoroutine()

	cases := []struct {
		name     string
		build    func(children ...*lifecycleOp) Operator
		children int
		// cancelled opens the operator under an already-cancelled context.
		cancelled bool
	}{
		{"hrjn-right-open-fails", func(c ...*lifecycleOp) Operator {
			return NewHRJN(c[0], bad, score, score, key, key, nil)
		}, 1, false},
		{"hrjn-bind-fails", func(c ...*lifecycleOp) Operator {
			return NewHRJN(c[0], c[1], badCol, score, key, key, nil)
		}, 2, false},
		{"nrjn-inner-drain-fails", func(c ...*lifecycleOp) Operator {
			return NewNRJN(c[0], drainFail, score, score, nil)
		}, 1, false},
		{"nrjn-bind-fails", func(c ...*lifecycleOp) Operator {
			return NewNRJN(c[0], c[1], badCol, score, nil)
		}, 2, false},
		{"sort-bind-fails", func(c ...*lifecycleOp) Operator {
			return NewSort(c[0], SortKey{E: badCol})
		}, 1, false},
		{"topk-bind-fails", func(c ...*lifecycleOp) Operator {
			return NewTopK(c[0], badCol, 3)
		}, 1, false},
		{"filter-bind-fails", func(c ...*lifecycleOp) Operator {
			return NewFilter(c[0], expr.Bin(expr.OpGt, badCol, expr.IntLit(0)))
		}, 1, false},
		{"nlj-inner-drain-fails", func(c ...*lifecycleOp) Operator {
			return NewNestedLoopsJoin(c[0], drainFail, nil)
		}, 1, false},
		{"hashjoin-build-fails", func(c ...*lifecycleOp) Operator {
			return NewHashJoin(c[0], c[1], badCol, key, nil)
		}, 2, false},
		{"hashjoin-probe-bind-fails", func(c ...*lifecycleOp) Operator {
			return NewHashJoin(c[0], c[1], key, badCol, nil)
		}, 2, false},
		{"smj-bind-fails", func(c ...*lifecycleOp) Operator {
			return NewSortMergeJoin(c[0], c[1], badCol, key, nil)
		}, 2, false},
		{"hashagg-drain-fails", func(c ...*lifecycleOp) Operator {
			return NewHashAggregate(nextErrOp{schema: rel.Schema()}, nil,
				[]AggSpec{{Func: AggCount, As: "c"}})
		}, 0, false},

		{"cancelled-sort", func(c ...*lifecycleOp) Operator {
			return NewSort(c[0], byScore)
		}, 1, true},
		{"cancelled-topk", func(c ...*lifecycleOp) Operator {
			return NewTopK(c[0], score, 3)
		}, 1, true},
		{"cancelled-hashjoin", func(c ...*lifecycleOp) Operator {
			return NewHashJoin(c[0], c[1], key, key, nil)
		}, 2, true},
		// The merge join and the sorted aggregate only forward the context;
		// their sort enforcers (always present in compiled plans) observe it.
		{"cancelled-smj", func(c ...*lifecycleOp) Operator {
			return NewSortMergeJoin(NewSort(c[0], byKey), NewSort(c[1], byKey), key, key, nil)
		}, 2, true},
		{"cancelled-hashagg", func(c ...*lifecycleOp) Operator {
			return NewHashAggregate(c[0], nil, count)
		}, 1, true},
		{"cancelled-sortedagg", func(c ...*lifecycleOp) Operator {
			return NewSortedAggregate(NewSort(c[0], byKey), []expr.ColRef{keyRef}, count)
		}, 1, true},
		{"cancelled-hrjn", func(c ...*lifecycleOp) Operator {
			return NewHRJN(c[0], c[1], score, score, key, key, nil)
		}, 2, true},
		{"cancelled-nrjn", func(c ...*lifecycleOp) Operator {
			return NewNRJN(c[0], c[1], score, score, eqKey)
		}, 2, true},
		{"cancelled-anyk", func(c ...*lifecycleOp) Operator {
			return must(NewAnyK([]Operator{c[0], c[1]},
				[]expr.Expr{score, score}, []expr.Expr{key}, []expr.Expr{key}))
		}, 2, true},
		{"cancelled-ta", func(c ...*lifecycleOp) Operator {
			return must(NewTA([]TAInput{taIn, taIn}))
		}, 0, true},
		{"cancelled-shardmerge", func(c ...*lifecycleOp) Operator {
			return must(NewShardMerge(ShardInputs(c[0], c[1]), 5, nil))
		}, 2, true},
		{"cancelled-analyzed", func(c ...*lifecycleOp) Operator {
			return Analyze(NewSort(c[0], byScore))
		}, 1, true},
	}
	for _, tc := range cases {
		children := make([]*lifecycleOp, 2)
		for i := range children {
			children[i] = track()
		}
		op := tc.build(children...)
		ctx := context.Background()
		if tc.cancelled {
			ctx = cancelled
		}
		err := op.Open(ctx)
		if err == nil && tc.cancelled {
			// Lazy operators (HRJN, AnyK) do their work in Next.
			for ok := true; ok && err == nil; {
				_, ok, err = op.Next()
			}
			_ = op.Close()
		} else if err == nil {
			t.Errorf("%s: Open unexpectedly succeeded", tc.name)
			_ = op.Close()
			continue
		}
		if tc.cancelled && !errors.Is(err, ErrQueryCancelled) {
			t.Errorf("%s: got %v, want ErrQueryCancelled", tc.name, err)
		}
		for i := 0; i < tc.children; i++ {
			c := children[i]
			if c.opens == 0 {
				continue // never opened: nothing to release
			}
			if c.opens != 1 || !c.balanced() {
				t.Errorf("%s: child %d leaked: %d opens, %d closes",
					tc.name, i, c.opens, c.closes)
			}
			if tc.cancelled && c.ctx.Err() == nil {
				t.Errorf("%s: child %d was not opened under the query context", tc.name, i)
			}
		}
	}
	// ShardMerge joins its workers before Open returns; allow the runtime a
	// moment to retire them before comparing goroutine counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > goroutines {
		t.Errorf("goroutines leaked: %d before, %d after", goroutines, after)
	}
}

// nullScoreInput builds a descending-score input with NULL scores
// interspersed; every tuple joins on key=1.
func nullScoreInput(name string, scores []any) Operator {
	sch := relation.NewSchema(
		relation.Column{Table: name, Name: "id", Kind: relation.KindInt},
		relation.Column{Table: name, Name: "key", Kind: relation.KindInt},
		relation.Column{Table: name, Name: "score", Kind: relation.KindFloat},
	)
	tuples := make([]relation.Tuple, len(scores))
	for i, s := range scores {
		v := relation.Null()
		if f, ok := s.(float64); ok {
			v = relation.Float(f)
		}
		tuples[i] = relation.Tuple{relation.Int(int64(i)), relation.Int(1), v}
	}
	return FromTuples(sch, tuples)
}

// TestHRJNDepthCountsNullScoreTuples: depth is the number of tuples read
// from an input — exactly what a counting wrapper around the input measures — so a
// tuple dropped for a NULL score still counts. Before the fix the stats
// mirrored lSeen/rSeen, which skip NULL-score tuples.
func TestHRJNDepthCountsNullScoreTuples(t *testing.T) {
	left, leftN := counted(nullScoreInput("A", []any{0.9, nil, 0.8, nil}))
	right, rightN := counted(nullScoreInput("B", []any{0.7, nil, 0.5}))
	j := NewHRJN(left, right,
		expr.Col("A", "score"), expr.Col("B", "score"),
		expr.Col("A", "key"), expr.Col("B", "key"), nil)
	tuples, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 4 { // 2 non-NULL left × 2 non-NULL right, all key=1
		t.Fatalf("got %d results, want 4", len(tuples))
	}
	st := j.Stats()
	if st.LeftDepth != leftN() || st.RightDepth != rightN() {
		t.Errorf("stats depths (%d,%d) disagree with counted pulls (%d,%d)",
			st.LeftDepth, st.RightDepth, leftN(), rightN())
	}
	if st.LeftDepth != 4 || st.RightDepth != 3 {
		t.Errorf("depths (%d,%d) must include NULL-score tuples, want (4,3)",
			st.LeftDepth, st.RightDepth)
	}
}

// TestNRJNDepthCountsNullScoreTuples: same invariant for NRJN — the outer
// depth counts NULL-score tuples that were consumed, and the inner depth is
// the full materialized input size before NULL filtering.
func TestNRJNDepthCountsNullScoreTuples(t *testing.T) {
	outer, outerN := counted(nullScoreInput("A", []any{0.9, nil, 0.8}))
	inner := nullScoreInput("B", []any{0.7, nil, nil, 0.5})
	j := NewNRJN(outer, inner,
		expr.Col("A", "score"), expr.Col("B", "score"),
		expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key")))
	tuples, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 4 { // 2 non-NULL outer × 2 non-NULL inner
		t.Fatalf("got %d results, want 4", len(tuples))
	}
	st := j.Stats()
	if st.LeftDepth != outerN() {
		t.Errorf("outer depth %d disagrees with counted pulls %d", st.LeftDepth, outerN())
	}
	if st.LeftDepth != 3 {
		t.Errorf("outer depth %d must include the NULL-score tuple, want 3", st.LeftDepth)
	}
	if st.RightDepth != 4 {
		t.Errorf("inner depth %d must be the raw materialized size, want 4", st.RightDepth)
	}
}

package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"rankopt/internal/expr"
)

// limitedHRJN builds the standard test join with a budget attached.
func limitedHRJN(n, mod int, budget *Budget) *HRJN {
	lsch, ltups := buildRankedInput(n, mod, 1)
	rsch, rtups := buildRankedInput(n, mod, 3)
	j := NewHRJN(
		FromTuples(lsch, ltups), FromTuples(rsch, rtups),
		expr.Col("A", "score"), expr.Col("A", "score"),
		expr.Col("A", "key"), expr.Col("A", "key"), nil)
	j.Budget = budget
	return j
}

func TestNewBudgetNilWhenUnlimited(t *testing.T) {
	if b := NewBudget(ResourceLimits{}); b != nil {
		t.Fatal("zero limits must yield a nil budget")
	}
	if b := NewBudget(ResourceLimits{Deadline: time.Now()}); b != nil {
		t.Fatal("a deadline alone needs no budget (the context enforces it)")
	}
	if b := NewBudget(ResourceLimits{MaxBufferedTuples: 1}); b == nil {
		t.Fatal("a buffer cap must yield a budget")
	}
	if b := NewBudget(ResourceLimits{MaxDepthPerInput: 1}); b == nil {
		t.Fatal("a depth cap must yield a budget")
	}
}

func TestBudgetExceededTyped(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 10})
	j := limitedHRJN(4000, 5, b)
	_, err := Collect(j)
	if err == nil {
		t.Fatal("tiny buffer budget must fail the join")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if b.Buffered() != 0 {
		t.Fatalf("budget not released after failed run: %d still charged", b.Buffered())
	}
}

// NRJN charges its inner as it buffers it: an inner larger than the budget
// fails one batch past the cap. Before the fix load collected all 50 000
// tuples (and copied them again) before the first charge.
func TestNRJNBudgetStopsInnerLoad(t *testing.T) {
	const limit = 100
	osch, otups := scoredKeyed("L", []float64{3, 2, 1}, []int64{1, 1, 1})
	isch, itups := buildRankedInput(50000, 100, 1)
	inner, innerN := counted(FromTuples(isch, itups))
	b := NewBudget(ResourceLimits{MaxBufferedTuples: limit})
	j := NewNRJN(FromTuples(osch, otups), inner,
		expr.Col("L", "score"), expr.Col("A", "score"),
		expr.Bin(expr.OpEq, expr.Col("L", "key"), expr.Col("A", "key")))
	j.Budget = b
	if _, err := Collect(j); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if innerN() > limit+DefaultBatchSize {
		t.Errorf("read %d inner tuples under a %d-tuple budget, want <= %d", innerN(), limit, limit+DefaultBatchSize)
	}
	if b.Buffered() != 0 {
		t.Fatalf("budget not released after failed Open: %d still charged", b.Buffered())
	}
}

// NestedLoopsJoin charges its materialized inner per batch and
// HashAggregate each group it holds: a limit below either size fails with the
// typed error and leaves nothing charged.
func TestBudgetCoversNLJInnerAndAggregateGroups(t *testing.T) {
	const limit = 100
	osch, otups := buildRankedInput(10, 5, 1)
	isch, itups := buildRankedInput(1000, 1000, 3)
	for _, tc := range []struct {
		name  string
		build func(*Budget) Operator
	}{
		{"nlj", func(b *Budget) Operator {
			j := NewNestedLoopsJoin(FromTuples(osch, otups), FromTuples(isch, itups), nil)
			j.Budget = b
			return j
		}},
		{"hash_agg", func(b *Budget) Operator {
			h := NewHashAggregate(FromTuples(isch, itups), []expr.ColRef{expr.Col("A", "key")}, []AggSpec{{Func: AggCount}})
			h.Budget = b
			return h
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBudget(ResourceLimits{MaxBufferedTuples: limit})
			if _, err := Collect(tc.build(b)); !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("want ErrBudgetExceeded, got %v", err)
			}
			if b.Buffered() != 0 {
				t.Fatalf("budget not released after failed Open: %d still charged", b.Buffered())
			}
			// A sufficient budget runs clean and is back at zero after Close.
			b = NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
			if _, err := Collect(tc.build(b)); err != nil {
				t.Fatal(err)
			}
			if b.Buffered() != 0 {
				t.Fatalf("budget not released after Close: %d still charged", b.Buffered())
			}
		})
	}
}

func TestDepthExceededTyped(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxDepthPerInput: 7})
	j := limitedHRJN(4000, 5, b)
	_, err := Collect(j)
	if err == nil {
		t.Fatal("tiny depth cap must fail the join")
	}
	if !errors.Is(err, ErrDepthExceeded) {
		t.Fatalf("want ErrDepthExceeded, got %v", err)
	}
	// Depth exhaustion is a budget failure in the taxonomy.
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("ErrDepthExceeded must wrap ErrBudgetExceeded, got %v", err)
	}
}

func TestBudgetSufficientRunsClean(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
	j := limitedHRJN(2000, 50, b)
	out, err := CollectK(j, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 25 {
		t.Fatalf("got %d tuples, want 25", len(out))
	}
	if b.Buffered() != 0 {
		t.Fatalf("budget not fully released after Close: %d", b.Buffered())
	}
}

// The budget is shared: two operators drawing from one allowance fail
// together where either alone would fit.
func TestBudgetSharedAcrossOperators(t *testing.T) {
	// Each sort buffers 600 tuples; a 1000-tuple budget fits one but not both.
	sch, tups := buildRankedInput(600, 10, 1)
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 1000})
	s1 := NewSort(FromTuples(sch, tups), SortKey{E: expr.Col("A", "score"), Desc: true})
	s1.Budget = b
	s2 := NewSort(FromTuples(sch, tups), SortKey{E: expr.Col("A", "score"), Desc: true})
	s2.Budget = b
	if err := s1.Open(context.Background()); err != nil {
		t.Fatalf("first sort must fit: %v", err)
	}
	defer s1.Close()
	err := s2.Open(context.Background())
	if err == nil {
		s2.Close()
		t.Fatal("second sort must exceed the shared budget")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	// Closing the holder frees its share; the second sort now fits.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Open(context.Background()); err != nil {
		t.Fatalf("after release the second sort must fit: %v", err)
	}
	s2.Close()
}

// TopK charges only its bounded heap, not the full input.
func TestTopKBudgetIsHeapBound(t *testing.T) {
	sch, tups := buildRankedInput(5000, 100, 1)
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 20})
	tk := NewTopK(FromTuples(sch, tups), expr.Col("A", "score"), 10)
	tk.Budget = b
	out, err := Collect(tk)
	if err != nil {
		t.Fatalf("K=10 under a 20-tuple budget must pass: %v", err)
	}
	if len(out) != 10 {
		t.Fatalf("got %d tuples, want 10", len(out))
	}
}

// A blocking operator whose Open fails over budget has charged the tuples it
// buffered before the cap; per the Operator contract nobody Closes it, so
// the failed Open itself must hand them back. TopK and HashJoin kept them.
func TestFailedOpenReturnsBudget(t *testing.T) {
	sch, tups := buildRankedInput(5000, 100, 1)
	for name, build := range map[string]func(*Budget) Operator{
		"TopK": func(b *Budget) Operator {
			tk := NewTopK(FromTuples(sch, tups), expr.Col("A", "score"), 100)
			tk.Budget = b
			return tk
		},
		"HashJoin": func(b *Budget) Operator {
			hj := NewHashJoin(FromTuples(sch, tups), FromTuples(sch, tups),
				expr.Col("A", "key"), expr.Col("A", "key"), nil)
			hj.Budget = b
			return hj
		},
	} {
		b := NewBudget(ResourceLimits{MaxBufferedTuples: 10})
		if _, err := Collect(build(b)); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: want ErrBudgetExceeded, got %v", name, err)
		}
		if n := b.Buffered(); n != 0 {
			t.Errorf("%s: failed Open left %d tuples charged", name, n)
		}
	}
}

func TestCancelledContextTyped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := limitedHRJN(4000, 50, nil)
	_, err := CollectCtx(ctx, j)
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("want ErrQueryCancelled, got %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ErrQueryCancelled must wrap context.Canceled, got %v", err)
	}
}

func TestExpiredDeadlineTyped(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	j := limitedHRJN(4000, 50, nil)
	_, err := CollectCtx(ctx, j)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ErrDeadlineExceeded must wrap context.DeadlineExceeded, got %v", err)
	}
}

// Cancelling mid-pull is observed within one polling period (64 Next calls),
// and the failed collect has closed the tree (budget fully released).
func TestCancelMidQueryReleasesBudget(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
	j := limitedHRJN(8000, 20, b)
	ctx, cancel := context.WithCancel(context.Background())
	if err := j.Open(ctx); err != nil {
		t.Fatal(err)
	}
	// Pull a few results, then cancel.
	for i := 0; i < 3; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("warm-up pull %d failed: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	var err error
	for i := 0; i < 2*cancelCheckPeriod; i++ {
		if _, _, err = j.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("cancellation not observed within polling cadence: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Buffered() != 0 {
		t.Fatalf("budget not released after cancel+Close: %d", b.Buffered())
	}
}

func TestCtxErrMapping(t *testing.T) {
	if err := CtxErr(context.Background()); err != nil {
		t.Fatalf("live context must map to nil, got %v", err)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := CtxErr(cctx); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("cancelled context must map to ErrQueryCancelled, got %v", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer dcancel()
	if err := CtxErr(dctx); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired context must map to ErrDeadlineExceeded, got %v", err)
	}
}

// cancelCheckPeriod must stay a power of two: the canceller's cheap test is
// a mask, not a division.
func TestCancelCheckPeriodPowerOfTwo(t *testing.T) {
	if cancelCheckPeriod&(cancelCheckPeriod-1) != 0 || cancelCheckPeriod == 0 {
		t.Fatalf("cancelCheckPeriod=%d is not a power of two", cancelCheckPeriod)
	}
}

// The budget machinery must add zero allocations per emitted tuple: charge
// and release are one atomic add each, the canceller a counter mask.
func TestBudgetAddsNoAllocations(t *testing.T) {
	lsch, ltups := buildRankedInput(4000, 200, 1)
	rsch, rtups := buildRankedInput(4000, 200, 3)
	const k = 100
	run := func(b *Budget) float64 {
		return testing.AllocsPerRun(5, func() {
			j := NewHRJN(
				FromTuples(lsch, ltups), FromTuples(rsch, rtups),
				expr.Col("A", "score"), expr.Col("A", "score"),
				expr.Col("A", "key"), expr.Col("A", "key"), nil)
			j.Budget = b
			if _, err := CollectK(j, k); err != nil {
				t.Fatal(err)
			}
		})
	}
	without := run(nil)
	with := run(NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20, MaxDepthPerInput: 1 << 20}))
	if raceBuild {
		return // the pool drops stores at random: the two counts differ by chance
	}
	// Identical workload, deterministic operators: the budgeted run may not
	// allocate a single extra object per run, let alone per tuple.
	if with > without {
		t.Errorf("budget checks allocate: %.1f allocs/run with budget vs %.1f without", with, without)
	}
}

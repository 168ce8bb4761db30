package exec

import (
	"context"
	"errors"
	"math"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// bigRel builds a deterministic n-row (id, key, score) relation with
// duplicate keys and a spread of scores — large enough that batch drains
// cross many batch boundaries.
func bigRel(name string, n int) *relation.Relation {
	rows := make([][3]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = [3]float64{float64(i), float64(i % 7), float64(i%13) / 13}
	}
	return makeRel(name, rows)
}

// runParity drains two fresh trees — mkRef one tuple per Next (the scalar
// reference executor), mkBatch batch-at-a-time — and requires identical
// results: count, order, arity, values.
func runParity(t *testing.T, name string, mkRef, mkBatch func() Operator) {
	t.Helper()
	ctx := context.Background()
	ref, err := CollectPerTupleCtx(ctx, mkRef())
	if err != nil {
		t.Fatalf("%s: per-tuple drain: %v", name, err)
	}
	got, err := CollectCtx(ctx, mkBatch())
	if err != nil {
		t.Fatalf("%s: batch drain: %v", name, err)
	}
	if len(ref) != len(got) {
		t.Fatalf("%s: per-tuple %d rows, batch %d rows", name, len(ref), len(got))
	}
	for i := range ref {
		if len(ref[i]) != len(got[i]) {
			t.Fatalf("%s row %d: arity %d vs %d", name, i, len(ref[i]), len(got[i]))
		}
		for j := range ref[i] {
			if !ref[i][j].Equal(got[i][j]) {
				t.Fatalf("%s row %d col %d: per-tuple %v, batch %v", name, i, j, ref[i][j], got[i][j])
			}
		}
	}
}

// TestBatchTupleParity drains every vectorized operator both ways over the
// same inputs and requires tuple-for-tuple agreement.
func TestBatchTupleParity(t *testing.T) {
	a := bigRel("A", 3000)
	b := bigRel("B", 40)
	cases := []struct {
		name string
		mk   func() Operator
	}{
		{"seqscan", func() Operator { return NewSeqScan(a) }},
		{"filter_fast", func() Operator {
			// col<const compiles to the de-boxed comparison kernel.
			return NewFilter(NewSeqScan(a), expr.Bin(expr.OpLt, expr.Col("A", "score"), expr.FloatLit(0.3)))
		}},
		{"filter_colcol", func() Operator {
			return NewFilter(NewSeqScan(a), expr.Bin(expr.OpLe, expr.Col("A", "key"), expr.Col("A", "id")))
		}},
		{"filter_slow", func() Operator {
			// Neg keeps the predicate off the comparison fast path.
			pred := expr.Bin(expr.OpGt, expr.Neg{E: expr.Col("A", "score")}, expr.FloatLit(-0.3))
			return NewFilter(NewSeqScan(a), pred)
		}},
		{"filter_allreject", func() Operator {
			return NewFilter(NewSeqScan(a), expr.Bin(expr.OpLt, expr.Col("A", "score"), expr.FloatLit(-1)))
		}},
		{"project", func() Operator {
			return NewProject(NewSeqScan(a),
				ProjectItem{E: expr.Col("A", "id"), As: "id", Kind: relation.KindInt},
				ProjectItem{E: expr.Bin(expr.OpMul, expr.Col("A", "score"), expr.FloatLit(2)), As: "s2", Kind: relation.KindFloat},
			)
		}},
		{"limit_over_filter", func() Operator {
			f := NewFilter(NewSeqScan(a), expr.Bin(expr.OpGt, expr.Col("A", "score"), expr.FloatLit(0.5)))
			return NewLimit(f, 37)
		}},
		{"rankassign", func() Operator {
			s := NewSortByScore(NewSeqScan(a), expr.Col("A", "score"))
			return NewRankAssign(s, expr.Col("A", "score"))
		}},
		{"hashjoin_residual", func() Operator {
			// A residual keeps the probe off the vectorized fast path; both
			// drains must still agree.
			return NewHashJoin(NewSeqScan(b), NewSeqScan(a),
				expr.Col("B", "key"), expr.Col("A", "key"),
				expr.Bin(expr.OpNe, expr.Col("B", "id"), expr.Col("A", "id")))
		}},
	}
	for _, c := range cases {
		runParity(t, c.name, c.mk, c.mk)
	}
}

// TestHashJoinBuildModesParity drains the hash join with the vectorized
// build (open-addressing numeric table) against the scalar reference build
// (interface-keyed map), on both drains, and requires identical output —
// the two table implementations are independent, so this differentially
// tests one against the other.
func TestHashJoinBuildModesParity(t *testing.T) {
	a := bigRel("A", 2000)
	b := bigRel("B", 60)
	mk := func(perTuple bool) func() Operator {
		return func() Operator {
			hj := NewHashJoin(NewSeqScan(b), NewSeqScan(a),
				expr.Col("B", "key"), expr.Col("A", "key"), nil)
			hj.PerTupleBuild = perTuple
			return hj
		}
	}
	// Reference = per-tuple drain of the scalar build; batch = batch drain of
	// the vectorized build. Then the two off-diagonal pairings.
	runParity(t, "scalar_vs_vectorized", mk(true), mk(false))
	runParity(t, "vectorized_both_drains", mk(false), mk(false))
	runParity(t, "scalar_build_batch_drain", mk(true), mk(true))
}

// floatKeyed builds a two-column (id INT, k FLOAT) input from raw key
// values, bypassing relation validation so NaN, ±0, and NULL keys can
// appear.
func floatKeyed(table string, keys []relation.Value) (sch *relation.Schema, tuples []relation.Tuple) {
	sch = relation.NewSchema(
		relation.Column{Table: table, Name: "id", Kind: relation.KindInt},
		relation.Column{Table: table, Name: "k", Kind: relation.KindFloat},
	)
	for i, k := range keys {
		tuples = append(tuples, relation.Tuple{relation.Int(int64(i)), k})
	}
	return sch, tuples
}

// TestHashJoinSpecialFloatKeys pins the numeric table's key semantics to
// Go's map over float64: -0 and +0 are one key, NaN keys are unreachable,
// NULL keys never join. Checked by parity against the interface-keyed
// reference build and by direct row accounting.
func TestHashJoinSpecialFloatKeys(t *testing.T) {
	nan := relation.Float(math.NaN())
	negZero := relation.Float(math.Copysign(0, -1))
	lsch, ltup := floatKeyed("L", []relation.Value{
		relation.Float(1), negZero, nan, relation.Null(), relation.Float(2.5),
	})
	rsch, rtup := floatKeyed("R", []relation.Value{
		relation.Float(0), nan, relation.Null(), relation.Float(1), relation.Float(3),
	})
	mk := func(perTuple bool) func() Operator {
		return func() Operator {
			hj := NewHashJoin(FromTuples(lsch, ltup), FromTuples(rsch, rtup),
				expr.Col("L", "k"), expr.Col("R", "k"), nil)
			hj.PerTupleBuild = perTuple
			return hj
		}
	}
	runParity(t, "special_float_keys", mk(true), mk(false))

	out, err := Collect(mk(false)())
	if err != nil {
		t.Fatal(err)
	}
	// Expected matches: L.k=1 with R.k=1, and L.k=-0 with R.k=+0. NaN meets
	// NaN but must not join (NaN != NaN); NULL keys drop on both sides.
	if len(out) != 2 {
		t.Fatalf("got %d joined rows, want 2: %v", len(out), out)
	}
	for _, row := range out {
		lf, _ := row[1].Float64()
		rf, _ := row[3].Float64()
		if lf != rf { // -0 == +0 holds; a NaN-joined row would fail here
			t.Fatalf("joined keys differ: %v vs %v", row[1], row[3])
		}
	}
}

// TestHashJoinMixedNumericKeys joins an INT key column against a FLOAT key
// column: HashKey widens both, so 2 and 2.0 are one key on both build
// implementations.
func TestHashJoinMixedNumericKeys(t *testing.T) {
	ints := makeRel("A", [][3]float64{{0, 2, 0}, {1, 3, 0}, {2, 2, 0}})
	fsch, ftup := floatKeyed("F", []relation.Value{
		relation.Float(2), relation.Float(2.5), relation.Float(3),
	})
	mk := func(perTuple bool) func() Operator {
		return func() Operator {
			hj := NewHashJoin(FromTuples(fsch, ftup), NewSeqScan(ints),
				expr.Col("F", "k"), expr.Col("A", "key"), nil)
			hj.PerTupleBuild = perTuple
			return hj
		}
	}
	runParity(t, "mixed_numeric_keys", mk(true), mk(false))
	out, err := Collect(mk(false)())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 { // F.k=2 matches A ids 0 and 2; F.k=3 matches id 1
		t.Fatalf("got %d joined rows, want 3: %v", len(out), out)
	}
}

// TestHashJoinStringKeyMigration forces the build to migrate off the
// numeric table (first keys numeric, then a string key arrives) and checks
// parity plus the expected matches.
func TestHashJoinStringKeyMigration(t *testing.T) {
	mkSide := func(table string, keys []relation.Value) Operator {
		sch := relation.NewSchema(
			relation.Column{Table: table, Name: "id", Kind: relation.KindInt},
			relation.Column{Table: table, Name: "k", Kind: relation.KindString},
		)
		var tuples []relation.Tuple
		for i, k := range keys {
			tuples = append(tuples, relation.Tuple{relation.Int(int64(i)), k})
		}
		return FromTuples(sch, tuples)
	}
	lkeys := []relation.Value{relation.Int(1), relation.Int(2), relation.String_("x"), relation.String_("y")}
	rkeys := []relation.Value{relation.String_("x"), relation.Int(2), relation.String_("z")}
	mk := func(perTuple bool) func() Operator {
		return func() Operator {
			hj := NewHashJoin(mkSide("L", lkeys), mkSide("R", rkeys),
				expr.Col("L", "k"), expr.Col("R", "k"), nil)
			hj.PerTupleBuild = perTuple
			return hj
		}
	}
	runParity(t, "string_key_migration", mk(true), mk(false))
	out, err := Collect(mk(false)())
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 { // "x" and 2
		t.Fatalf("got %d joined rows, want 2: %v", len(out), out)
	}
}

// slowSource emits up to n copies of one (id, key, score) tuple, one per
// Next, invoking onNext before each pull. Per-tuple only — batch consumers
// reach it through the shim — which makes it the tool for cancellation
// timing tests.
type slowSource struct {
	schema *relation.Schema
	tuple  relation.Tuple
	n, pos int
	onNext func(i int)
}

func newSlowSource(n int, onNext func(i int)) *slowSource {
	rel := makeRel("S", [][3]float64{{0, 1, 1.0}})
	return &slowSource{schema: rel.Schema(), tuple: rel.Tuples()[0], n: n, onNext: onNext}
}

func (s *slowSource) Schema() *relation.Schema   { return s.schema }
func (s *slowSource) Open(context.Context) error { s.pos = 0; return nil }
func (s *slowSource) Close() error               { return nil }

func (s *slowSource) Next() (relation.Tuple, bool, error) {
	if s.pos >= s.n {
		return nil, false, nil
	}
	if s.onNext != nil {
		s.onNext(s.pos)
	}
	s.pos++
	return s.tuple, true, nil
}

// TestFilterRejectLoopCancellation is the regression test for the
// uncancellable reject loop: a selective predicate rejecting every input
// tuple used to spin inside one Next call with no context poll. The filter
// must now observe cancellation from within the loop — before exhausting
// the source — on both the per-tuple and batch paths.
func TestFilterRejectLoopCancellation(t *testing.T) {
	pred := expr.Bin(expr.OpLt, expr.Col("S", "score"), expr.FloatLit(0)) // rejects all

	t.Run("per_tuple", func(t *testing.T) {
		src := newSlowSource(1_000_000, nil)
		f := NewFilter(src, pred)
		ctx, cancel := context.WithCancel(context.Background())
		if err := f.Open(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		_, _, err := f.Next()
		if !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("reject loop ignored cancellation: %v", err)
		}
		// Early exit, not exhaustion: the loop may overrun by at most one
		// polling period.
		if src.pos > 2*cancelCheckPeriod {
			t.Fatalf("reject loop pulled %d tuples after cancel (cadence %d)", src.pos, cancelCheckPeriod)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("batch", func(t *testing.T) {
		src := newSlowSource(1_000_000, nil)
		f := NewFilter(src, pred)
		ctx, cancel := context.WithCancel(context.Background())
		if err := f.Open(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		b := NewBatch(DefaultBatchSize)
		_, err := f.NextBatch(b, DefaultBatchSize)
		if !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("batch reject loop ignored cancellation: %v", err)
		}
		// One shim fill plus one polling period of slack.
		if src.pos > DefaultBatchSize+2*cancelCheckPeriod {
			t.Fatalf("batch reject loop pulled %d tuples after cancel", src.pos)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCollectKCtxCancellation covers the CollectK fix: the k-bounded drain
// now opens with the query context and polls it, so a
// cancelled context stops the pull loop instead of running to k.
func TestCollectKCtxCancellation(t *testing.T) {
	t.Run("pre_cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		src := newSlowSource(1000, nil)
		_, err := CollectKCtx(ctx, src, 10)
		if !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("want ErrQueryCancelled, got %v", err)
		}
		if src.pos != 0 {
			t.Fatalf("pre-cancelled collect still pulled %d tuples", src.pos)
		}
	})

	t.Run("mid_drain", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		const cancelAt = 10
		src := newSlowSource(1_000_000, func(i int) {
			if i == cancelAt {
				cancel()
			}
		})
		_, err := CollectKCtx(ctx, src, 1_000_000)
		if !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("want ErrQueryCancelled, got %v", err)
		}
		if src.pos > cancelAt+2*cancelCheckPeriod {
			t.Fatalf("collect pulled %d tuples after cancel at %d", src.pos, cancelAt)
		}
	})

	t.Run("bounded_pull", func(t *testing.T) {
		src := newSlowSource(1000, nil)
		out, err := CollectKCtx(context.Background(), src, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 7 || src.pos != 7 {
			t.Fatalf("collected %d, pulled %d; want exactly 7 of each", len(out), src.pos)
		}
	})
}

// TestMidBatchCancellation cancels while a batch is being filled: the shim
// fill loop polls on the canceller cadence, so the batch drain stops within
// one polling period of the cancel — it does not finish the batch, the
// round, or the input.
func TestMidBatchCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const cancelAt = 600 // mid-way through the third 256-tuple batch fill
	src := newSlowSource(1_000_000, func(i int) {
		if i == cancelAt {
			cancel()
		}
	})
	// All-pass filter: the vectorized NextBatch path over the per-tuple shim.
	f := NewFilter(src, expr.Bin(expr.OpGe, expr.Col("S", "score"), expr.FloatLit(0)))
	_, err := CollectCtx(ctx, f)
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("want ErrQueryCancelled, got %v", err)
	}
	if src.pos > cancelAt+2*cancelCheckPeriod {
		t.Fatalf("drain pulled %d tuples after cancel at %d", src.pos, cancelAt)
	}
}

// TestLimitBatchDoesNotOverpull checks the demand clamp: a batch drain
// through LIMIT k pulls exactly k tuples from the child, preserving the
// early termination lazy rank-join roots rely on.
func TestLimitBatchDoesNotOverpull(t *testing.T) {
	src := newSlowSource(100000, nil)
	l := NewLimit(src, 25)
	out, err := CollectCtx(context.Background(), l)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 25 {
		t.Fatalf("collected %d rows, want 25", len(out))
	}
	if src.pos != 25 {
		t.Fatalf("batch drain pulled %d child tuples for LIMIT 25", src.pos)
	}
}

// TestBatchSetViewSafety pins the borrowed-view contract: appending to a
// viewed batch reallocates instead of writing into the borrowed array, and
// Reset never adopts a borrowed view as the append target.
func TestBatchSetViewSafety(t *testing.T) {
	base := []relation.Tuple{
		{relation.Int(0)}, {relation.Int(1)}, {relation.Int(2)},
	}
	backing := make([]relation.Tuple, len(base), len(base)+4)
	copy(backing, base)

	b := NewBatch(2)
	b.SetView(backing[:2])
	if b.Len() != 2 {
		t.Fatalf("view length %d, want 2", b.Len())
	}
	b.Append(relation.Tuple{relation.Int(99)})
	if got := backing[2][0].AsInt(); got != 2 {
		t.Fatalf("append through a view clobbered the borrowed array: slot 2 = %d", got)
	}
	if b.Len() != 3 || b.Tuples()[2][0].AsInt() != 99 {
		t.Fatal("append after SetView lost the appended tuple")
	}

	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset must empty the batch")
	}
	b.Append(relation.Tuple{relation.Int(7)})
	for i, want := range []int64{0, 1, 2} {
		if backing[i][0].AsInt() != want {
			t.Fatalf("append after Reset wrote into the borrowed array at %d", i)
		}
	}
}

// TestTupleArenaIsolation pins the arena's caller-ownership rule: carved
// tuples are full-capacity slices, so growing one reallocates instead of
// clobbering its neighbor.
func TestTupleArenaIsolation(t *testing.T) {
	var a tupleArena
	t1 := a.alloc(2)
	t2 := a.alloc(2)
	t1[0], t1[1] = relation.Int(1), relation.Int(2)
	t2[0], t2[1] = relation.Int(3), relation.Int(4)
	grown := append(t1, relation.Int(5))
	if t2[0].AsInt() != 3 || t2[1].AsInt() != 4 {
		t.Fatal("growing an arena tuple clobbered its neighbor")
	}
	if len(grown) != 3 || grown[2].AsInt() != 5 {
		t.Fatal("grown tuple lost its appended value")
	}
	c := a.concat(relation.Tuple{relation.Int(8)}, relation.Tuple{relation.Int(9)})
	if len(c) != 2 || c[0].AsInt() != 8 || c[1].AsInt() != 9 {
		t.Fatalf("concat = %v", c)
	}
	// Width above one chunk still works (dedicated allocation).
	wide := a.alloc(arenaChunkValues + 8)
	if len(wide) != arenaChunkValues+8 {
		t.Fatalf("oversized alloc length %d", len(wide))
	}
}

// Allocation budgets for the batch path (the arena's whole point is the
// allocation count). Bounds are ~2× the measured values, far below one
// allocation per tuple.
func TestBatchDrainAllocBudgets(t *testing.T) {
	rel := bigRel("A", 10000)
	build := bigRel("B", 50)
	ctx := context.Background()
	cases := []struct {
		name   string
		mk     func() Operator
		budget float64
	}{
		// Scan drains borrow heap windows: a handful of allocations per
		// drain regardless of row count.
		{"seqscan", func() Operator { return NewSeqScan(rel) }, 32},
		// Vectorized filter: batch machinery only, rejects and passes alike.
		{"filter", func() Operator {
			return NewFilter(NewSeqScan(rel), expr.Bin(expr.OpLt, expr.Col("A", "score"), expr.FloatLit(0.3)))
		}, 64},
		// 10k projected rows of width 2 = 20k values ≈ 5 arena chunks; with
		// batch machinery and eval setup the drain stays two orders of
		// magnitude under one allocation per tuple.
		{"project", func() Operator {
			return NewProject(NewSeqScan(rel),
				ProjectItem{E: expr.Col("A", "id"), As: "id", Kind: relation.KindInt},
				ProjectItem{E: expr.Col("A", "score"), As: "score", Kind: relation.KindFloat},
			)
		}, 128},
		// Probe-side join: output tuples carve from the arena; the budget
		// covers the build table plus ~10k output rows of width 6.
		{"hashjoin", func() Operator {
			hj := NewHashJoin(NewSeqScan(build), NewSeqScan(rel),
				expr.Col("B", "key"), expr.Col("A", "key"), nil)
			hj.BuildSizeHint = 50
			return hj
		}, 768},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := drain(ctx, c.mk(), nil, pullBatch, noLimit, countRows); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > c.budget {
				t.Fatalf("batch drain allocated %.0f times, budget %.0f", allocs, c.budget)
			}
		})
	}
}

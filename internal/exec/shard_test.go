package exec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rankopt/internal/relation"
)

// shardSchema is the shape shard pipelines hand the coordinator: payload
// columns followed by the score and rank RankAssign appends.
func shardSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Table: "T", Name: "id", Kind: relation.KindInt},
		relation.Column{Name: "score", Kind: relation.KindFloat},
		relation.Column{Name: "rank", Kind: relation.KindInt},
	)
}

// shardStream builds a shard input emitting the given scores in order, with
// ids numbered base, base+1, ... and per-shard ranks 1..n.
func shardStream(base int, scores ...float64) Operator {
	tuples := make([]relation.Tuple, len(scores))
	for i, s := range scores {
		tuples[i] = relation.Tuple{
			relation.Int(int64(base + i)), relation.Float(s), relation.Int(int64(i + 1)),
		}
	}
	return FromTuples(shardSchema(), tuples)
}

// descendingForever emits an unbounded strictly descending score stream; only
// the worker's per-tuple context check can stop it. emitted counts tuples
// produced, so tests can prove the early stop actually limited shard work.
type descendingForever struct {
	start   float64
	step    float64
	next    float64
	emitted atomic.Int64
	opens   atomic.Int64
	closes  atomic.Int64
}

func (d *descendingForever) Schema() *relation.Schema   { return shardSchema() }
func (d *descendingForever) Open(context.Context) error { d.opens.Add(1); d.next = d.start; return nil }
func (d *descendingForever) Close() error               { d.closes.Add(1); return nil }
func (d *descendingForever) Next() (relation.Tuple, bool, error) {
	n := d.emitted.Add(1)
	s := d.next
	d.next -= d.step
	return relation.Tuple{relation.Int(n), relation.Float(s), relation.Int(n)}, true, nil
}

// ShardInputs wraps bare operators as unbounded shard inputs (Ceiling +Inf).
func ShardInputs(ops ...Operator) []ShardInput {
	ins := make([]ShardInput, len(ops))
	for i, op := range ops {
		ins[i] = ShardInput{Op: op, Ceiling: math.Inf(1)}
	}
	return ins
}

func mergeScores(t *testing.T, out []relation.Tuple) []float64 {
	t.Helper()
	scores := make([]float64, len(out))
	for i, tup := range out {
		v, ok := tup[1].Float64()
		if !ok {
			t.Fatalf("tuple %d has non-numeric score %v", i, tup[1])
		}
		scores[i] = v
	}
	return scores
}

// TestShardMergeMatchesGlobalTopK: merging per-shard descending streams must
// yield exactly the top-k of the union, in descending order with global ranks.
func TestShardMergeMatchesGlobalTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const shards, perShard, k = 5, 40, 12
	var all []float64
	inputs := make([]ShardInput, shards)
	for s := 0; s < shards; s++ {
		scores := make([]float64, perShard)
		for i := range scores {
			scores[i] = rng.Float64() * 100
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		all = append(all, scores...)
		inputs[s] = ShardInput{Op: shardStream(s*perShard, scores...), Ceiling: scores[0]}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))

	m, err := NewShardMerge(inputs, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	got := mergeScores(t, out)
	if len(got) != k {
		t.Fatalf("got %d tuples, want %d", len(got), k)
	}
	for i := range got {
		if got[i] != all[i] {
			t.Fatalf("rank %d: score %v, want %v", i+1, got[i], all[i])
		}
		if r := out[i][2].AsInt(); r != int64(i+1) {
			t.Fatalf("rank %d: rank column %d", i+1, r)
		}
	}
	st := m.Stats()
	if st.Shards != shards || st.KthScore != got[k-1] {
		t.Fatalf("stats %+v, want shards=%d kth=%v", st, shards, got[k-1])
	}
	if st.TuplesPulled+st.TuplesSaved < shards*k && st.Exhausted+st.EarlyStopped+st.Pruned != shards {
		t.Fatalf("shard dispositions don't cover all shards: %+v", st)
	}
}

// TestShardMergeDeterministic: same inputs twice must produce identical
// tuples, including among tied scores.
func TestShardMergeDeterministic(t *testing.T) {
	build := func() []ShardInput {
		return []ShardInput{
			{Op: shardStream(0, 5, 5, 3, 3), Ceiling: 5},
			{Op: shardStream(10, 5, 3, 3, 1), Ceiling: 5},
			{Op: shardStream(20, 5, 5, 5, 3), Ceiling: 5},
		}
	}
	run := func() []string {
		m, err := NewShardMerge(build(), 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(m)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]string, len(out))
		for i, tup := range out {
			rows[i] = tup.String()
		}
		return rows
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across runs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestShardMergePrunesByCeiling: with StartWidth 1 and descending-ceiling
// launch order, a shard whose a-priori ceiling cannot beat the k-th score
// must never start — its operator is never opened.
func TestShardMergePrunesByCeiling(t *testing.T) {
	weak := &descendingForever{start: 0.5, step: 0.001}
	inputs := []ShardInput{
		{Op: shardStream(0, 10, 9, 8), Ceiling: 10},
		{Op: weak, Ceiling: 0.5},
	}
	m, err := NewShardMerge(inputs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.StartWidth = 1
	out, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergeScores(t, out); len(got) != 3 || got[2] != 8 {
		t.Fatalf("top-3 = %v", got)
	}
	st := m.Stats()
	if st.Pruned != 1 || st.Started != 1 || st.TuplesSaved < 3 {
		t.Fatalf("stats %+v, want pruned=1 started=1 saved>=3", st)
	}
	if weak.opens.Load() != 0 {
		t.Fatalf("pruned shard was opened %d times", weak.opens.Load())
	}
}

// TestShardMergeEarlyStopsMidStream: a running shard whose last-emitted score
// falls to or below the k-th buffered score must be cancelled promptly — an
// unbounded stream must not be drained past the bound.
func TestShardMergeEarlyStopsMidStream(t *testing.T) {
	weak := &descendingForever{start: 100, step: 1}
	inputs := []ShardInput{
		{Op: shardStream(0, 1000, 999, 998), Ceiling: 1000},
		{Op: weak, Ceiling: math.Inf(1)}, // unknown ceiling: must start
	}
	m, err := NewShardMerge(inputs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.StartWidth = 2
	out, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if got := mergeScores(t, out); got[0] != 1000 || got[2] != 998 {
		t.Fatalf("top-3 = %v", got)
	}
	st := m.Stats()
	// The unbounded shard must be stopped; the finite shard may also count as
	// early-stopped when its final tuple drops its bound exactly to the k-th.
	if st.EarlyStopped < 1 || st.Started != 2 {
		t.Fatalf("stats %+v, want started=2 early_stopped>=1", st)
	}
	// The worker checks its context once per tuple, and channel backpressure
	// bounds how far ahead it can run; well under 100 tuples either way.
	if n := weak.emitted.Load(); n >= 100 {
		t.Fatalf("early-stopped shard emitted %d tuples", n)
	}
	if weak.opens.Load() != 1 || weak.closes.Load() != 1 {
		t.Fatalf("open/close %d/%d, want 1/1", weak.opens.Load(), weak.closes.Load())
	}
}

// TestShardScatterStopLatency: stopping one shard must not disturb the others,
// and the stop is reported as the coordinator's own doing, not an error. The
// unbounded shard runs beside a finite one whose three scores all beat it; at
// k = 4 the finite shard's bound never falls to the k-th score, so it must run
// to exhaustion with all three tuples pulled while the other is stopped.
func TestShardScatterStopLatency(t *testing.T) {
	weak := &descendingForever{start: 100, step: 1}
	inputs := []ShardInput{
		{Op: weak, Ceiling: math.Inf(1)},
		{Op: shardStream(0, 1000, 999, 998), Ceiling: 1000},
	}
	m, err := NewShardMerge(inputs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.StartWidth = 2
	out, err := Collect(m)
	if err != nil {
		t.Fatalf("a stopped shard must not fail the query: %v", err)
	}
	if got := mergeScores(t, out); len(got) != 4 || got[0] != 1000 || got[3] != 100 {
		t.Fatalf("top-4 = %v, want [1000 999 998 100]", got)
	}
	st := m.Stats()
	if c := st.PerShard[0].Cause; c != ShardCauseEarlyStopped {
		t.Fatalf("stopped shard cause = %q, want %q", c, ShardCauseEarlyStopped)
	}
	if n := weak.emitted.Load(); n >= 100 {
		t.Fatalf("stopped shard emitted %d tuples", n)
	}
	if o := st.PerShard[1]; o.Cause != ShardCauseExhausted || o.Pulled != 3 {
		t.Fatalf("surviving shard: cause %q, %d tuples pulled; want %q, 3", o.Cause, o.Pulled, ShardCauseExhausted)
	}
}

// TestShardMergeMonotonicViolation: a shard stream that rises above its own
// observed bound breaks the correctness argument and must fail loudly with
// the typed OrderViolationError — a silently stale bound could prune
// a shard that still beats the k-th score.
func TestShardMergeMonotonicViolation(t *testing.T) {
	inputs := ShardInputs(shardStream(0, 5, 3, 9))
	m, err := NewShardMerge(inputs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	openErr := m.Open(context.Background())
	if openErr == nil || !strings.Contains(openErr.Error(), "descend") {
		t.Fatalf("Open = %v, want monotonicity error", openErr)
	}
	var ov *OrderViolationError
	if !errors.As(openErr, &ov) {
		t.Fatalf("Open = %v, want wrapped *OrderViolationError", openErr)
	}
	if ov.Score != 9 || ov.Bound != 3 {
		t.Fatalf("violation detail = %+v", *ov)
	}
}

// TestShardMergeNaNScore: a NaN score cannot be ordered, so it must surface
// the typed order-violation error instead of being silently dropped from the
// bound (where it would freeze the shard's pruning threshold).
func TestShardMergeNaNScore(t *testing.T) {
	inputs := ShardInputs(shardStream(0, 5, math.NaN(), 3))
	m, err := NewShardMerge(inputs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	openErr := m.Open(context.Background())
	var ov *OrderViolationError
	if !errors.As(openErr, &ov) {
		t.Fatalf("Open = %v, want wrapped *OrderViolationError", openErr)
	}
	if !math.IsNaN(ov.Score) {
		t.Fatalf("violation detail = %+v, want NaN score", *ov)
	}
}

// TestShardMergeAboveCeiling: a shard's a-priori ceiling is its first bound,
// so a shard that emits above it breaks the same contract as one whose
// scores rise, and must fail the gather with the typed error.
func TestShardMergeAboveCeiling(t *testing.T) {
	inputs := []ShardInput{{Op: shardStream(0, 11, 10), Ceiling: 10}}
	m, err := NewShardMerge(inputs, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	openErr := m.Open(context.Background())
	var ov *OrderViolationError
	if !errors.As(openErr, &ov) {
		t.Fatalf("Open = %v, want wrapped *OrderViolationError", openErr)
	}
	if ov.Source != 0 || ov.Score != 11 || ov.Bound != 10 {
		t.Fatalf("violation detail = %+v", *ov)
	}
}

// TestShardMergeOrderSlack: equal scores, a repeat within rounding slack of
// the bound (or of the ceiling), and -Inf after real scores are all legal
// descending streams, not order violations.
func TestShardMergeOrderSlack(t *testing.T) {
	inputs := []ShardInput{
		{Op: shardStream(0, 5+1e-12, 5, 5, 5+1e-12, math.Inf(-1)), Ceiling: 5},
		{Op: shardStream(10, 4, 4), Ceiling: math.Inf(1)},
	}
	m, err := NewShardMerge(inputs, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(m)
	if err != nil {
		t.Fatalf("a legal stream failed the gather: %v", err)
	}
	if got := mergeScores(t, out); len(got) != 7 || !math.IsInf(got[6], -1) {
		t.Fatalf("top-7 = %v", got)
	}
}

// TestShardMergeBoundLifecycle: a shard's bound is its ceiling until it
// emits (a pruned shard reports the ceiling it lost with), then its last
// score (a stopped or exhausted shard reports that); a NaN ceiling bounds
// nothing, so its shard must start.
func TestShardMergeBoundLifecycle(t *testing.T) {
	inputs := []ShardInput{
		{Op: shardStream(0, 10, 9, 8), Ceiling: 10},
		{Op: &descendingForever{start: 0.5, step: 0.1}, Ceiling: 0.5},
		{Op: shardStream(20, 7), Ceiling: math.NaN()},
	}
	m, err := NewShardMerge(inputs, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.StartWidth = 1
	if _, err := Collect(m); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Started != 2 || st.Pruned != 1 {
		t.Fatalf("stats %+v, want 2 started and 1 pruned", st)
	}
	for i, want := range []struct {
		bound float64
		cause string
	}{{8, ""}, {0.5, ShardCausePruned}, {7, ""}} {
		o := st.PerShard[i]
		if o.Bound != want.bound || (want.cause != "" && o.Cause != want.cause) {
			t.Errorf("shard %d: bound %v, cause %q; want %v, %q", i, o.Bound, o.Cause, want.bound, want.cause)
		}
	}
}

// TestShardMergeWorkerError: one shard's pipeline error fails the whole
// gather, and every worker is joined and closed before Open returns.
func TestShardMergeWorkerError(t *testing.T) {
	boom := errors.New("disk on fire")
	bad := &errAfterOp{schema: shardSchema(), after: 2, err: boom}
	weak := &descendingForever{start: 50, step: 0.5}
	inputs := []ShardInput{
		{Op: bad, Ceiling: math.Inf(1)},
		{Op: weak, Ceiling: math.Inf(1)},
	}
	m, err := NewShardMerge(inputs, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("Open = %v, want %v", err, boom)
	}
	if weak.opens.Load() != weak.closes.Load() {
		t.Fatalf("surviving shard open/close unbalanced: %d/%d", weak.opens.Load(), weak.closes.Load())
	}
}

// errAfterOp emits descending scores then fails.
type errAfterOp struct {
	schema *relation.Schema
	after  int
	err    error
	n      int
}

func (e *errAfterOp) Schema() *relation.Schema   { return e.schema }
func (e *errAfterOp) Open(context.Context) error { e.n = 0; return nil }
func (e *errAfterOp) Close() error               { return nil }
func (e *errAfterOp) Next() (relation.Tuple, bool, error) {
	if e.n >= e.after {
		return nil, false, e.err
	}
	e.n++
	return relation.Tuple{relation.Int(int64(e.n)), relation.Float(100 - float64(e.n)), relation.Int(int64(e.n))}, true, nil
}

// TestShardMergeQueryCancellation: cancelling the query context mid-gather
// must surface the typed cancellation error and join every shard worker —
// the goroutine-leak regression test for the coordinator teardown path.
func TestShardMergeQueryCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	streams := make([]*descendingForever, 4)
	inputs := make([]ShardInput, len(streams))
	for i := range streams {
		streams[i] = &descendingForever{start: 1e9, step: 1e-6}
		inputs[i] = ShardInput{Op: streams[i], Ceiling: math.Inf(1)}
	}
	m, err := NewShardMerge(inputs, 1<<30, nil) // k too large to ever fill
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := m.Open(ctx); !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("Open = %v, want ErrQueryCancelled", err)
	}
	for i, s := range streams {
		if s.opens.Load() != s.closes.Load() {
			t.Fatalf("shard %d open/close unbalanced: %d/%d", i, s.opens.Load(), s.closes.Load())
		}
	}
	// Open joins its workers before returning; allow the runtime a moment
	// to retire them before comparing goroutine counts.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShardMergeCloseAfterPartialRead: reading part of the output and closing
// must release the budget charge (the scatter was already torn down by the
// blocking gather).
func TestShardMergeCloseAfterPartialRead(t *testing.T) {
	budget := NewBudget(ResourceLimits{MaxBufferedTuples: 8})
	inputs := ShardInputs(shardStream(0, 9, 8, 7), shardStream(10, 6, 5, 4))
	m, err := NewShardMerge(inputs, 4, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := m.Next(); err != nil || !ok {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got := budget.Buffered(); got != 0 {
		t.Fatalf("budget still holds %d tuples after Close", got)
	}
}

// TestShardMergeBudgetExceeded: the coordinator's heap charges the shared
// budget like every other buffering operator.
func TestShardMergeBudgetExceeded(t *testing.T) {
	budget := NewBudget(ResourceLimits{MaxBufferedTuples: 3})
	inputs := ShardInputs(shardStream(0, 9, 8, 7, 6, 5))
	m, err := NewShardMerge(inputs, 5, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Open(context.Background()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Open = %v, want ErrBudgetExceeded", err)
	}
	if got := budget.Buffered(); got != 0 {
		t.Fatalf("budget still holds %d tuples after failed Open", got)
	}
}

// TestShardMergeNullScores: NULL scores sort after every real score, like
// ORDER BY ... DESC.
func TestShardMergeNullScores(t *testing.T) {
	sch := shardSchema()
	withNull := FromTuples(sch, []relation.Tuple{
		{relation.Int(1), relation.Float(4), relation.Int(1)},
		{relation.Int(2), relation.Null(), relation.Int(2)},
	})
	inputs := ShardInputs(withNull, shardStream(10, 3, 2))
	m, err := NewShardMerge(inputs, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || !out[3][1].IsNull() {
		t.Fatalf("NULL score must sort last: %v", out)
	}
}

// TestShardMergeValidation covers constructor rejections.
func TestShardMergeValidation(t *testing.T) {
	if _, err := NewShardMerge(nil, 3, nil); err == nil {
		t.Fatal("empty inputs must be rejected")
	}
	if _, err := NewShardMerge(ShardInputs(shardStream(0, 1)), 0, nil); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	noScore := FromTuples(relation.NewSchema(
		relation.Column{Name: "id", Kind: relation.KindInt},
	), nil)
	if _, err := NewShardMerge(ShardInputs(noScore), 1, nil); err == nil {
		t.Fatal("schema without score column must be rejected")
	}
}

// TestShardMergeAllocs pins the merge buffer in the sharded-skew shape: one
// running 4 000-tuple shard stopped once k tuples are in, three pruned,
// StartWidth 1, Progress attached. The winners sit in a typed heap and are
// copied into one value block, so a gather allocates the same objects at any
// k. With container/heap boxing every entry on Push and on Pop and a copy per
// winner, this test measured about three per winner: 57 objects at k = 10,
// 179 at k = 50.
func TestShardMergeAllocs(t *testing.T) {
	scores := make([]float64, 4000)
	for i := range scores {
		scores[i] = float64(len(scores) - i)
	}
	inputs := []ShardInput{{Op: shardStream(0, scores...), Ceiling: scores[0]}}
	for s := 1; s < 4; s++ {
		inputs = append(inputs, ShardInput{Op: shardStream(s*len(scores), 1, 0.5), Ceiling: 1})
	}
	gather := func(k int) float64 {
		var st ShardMergeStats
		allocs := testing.AllocsPerRun(20, func() {
			m, err := NewShardMerge(inputs, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.StartWidth = 1
			m.Progress = &Progress{}
			out, err := Collect(m)
			if err != nil || len(out) != k {
				t.Fatalf("k=%d: %d tuples, %v", k, len(out), err)
			}
			st = m.Stats()
		})
		if st.Started != 1 || st.Pruned != 3 || st.EarlyStopped != 1 {
			t.Fatalf("k=%d: stats %+v, want 1 started and stopped, 3 pruned", k, st)
		}
		return allocs
	}
	small, large := gather(10), gather(50)
	t.Logf("gather allocates %.0f objects at k=10, %.0f at k=50", small, large)
	if large > small+4 {
		t.Errorf("k=50 allocates %.0f objects, k=10 %.0f: the merge buffer allocates per winner", large, small)
	}
}

// TestShardMergeDoneBehindTuples loops the interleaving in which a shard's
// completion used to overtake its last queued tuples: two shards run at once,
// the weak one (an endless stream of low scores) is early-stopped as soon as
// it alone has filled the top-k, and the strong one's ten tuples — the whole
// answer — arrive around its Done. When that Done was received first and the
// stopped shard had already reported, the gather ended with the strong shard's
// tail unread and low scores stayed in the answer.
func TestShardMergeDoneBehindTuples(t *testing.T) {
	const k = 10
	strong := make([]float64, k)
	for i := range strong {
		strong[i] = float64(100 - i)
	}
	for iter := 0; iter < 3000; iter++ {
		inputs := []ShardInput{
			{Op: shardStream(0, strong...), Ceiling: 100},
			{Op: &descendingForever{start: 50, step: 1}, Ceiling: 50},
		}
		m, err := NewShardMerge(inputs, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.StartWidth = 2 // both running: what the default width gives any multi-core host
		out, err := Collect(m)
		if err != nil {
			t.Fatal(err)
		}
		got := mergeScores(t, out)
		if len(got) != k {
			t.Fatalf("iteration %d: %d tuples, want %d", iter, len(got), k)
		}
		for i := range got {
			if got[i] != strong[i] {
				t.Fatalf("iteration %d: rank %d has score %v, want %v: a shard's tuples were dropped behind its Done (%v)",
					iter, i+1, got[i], strong[i], got)
			}
		}
	}
}

// ringShard emits its descending scores through a ring of rows it reuses:
// each Next overwrites the row it returned len(ring) calls before. A gather
// whose channel holds at most credit rows has absorbed that row by then once
// the ring holds credit+2 rows, so only a gather that copies what it keeps
// still answers correctly.
type ringShard struct {
	base   int
	scores []float64
	ring   []relation.Tuple
	n      int
}

func newRingShard(base, credit int, scores []float64) *ringShard {
	r := &ringShard{base: base, scores: scores, ring: make([]relation.Tuple, credit+2)}
	for i := range r.ring {
		r.ring[i] = make(relation.Tuple, 3)
	}
	return r
}

func (r *ringShard) Schema() *relation.Schema   { return shardSchema() }
func (r *ringShard) Open(context.Context) error { r.n = 0; return nil }
func (r *ringShard) Close() error               { return nil }
func (r *ringShard) Next() (relation.Tuple, bool, error) {
	if r.n >= len(r.scores) {
		return nil, false, nil
	}
	row := r.ring[r.n%len(r.ring)]
	row[0], row[1], row[2] = relation.Int(int64(r.base+r.n)), relation.Float(r.scores[r.n]), relation.Int(int64(r.n+1))
	r.n++
	return row, true, nil
}

// TestShardMergeRowsCopiedOnAbsorb: shard inputs that reuse each row once the
// gather has absorbed it (ringShard) still merge to brute force's top-k, ids
// and scores: the gather keeps no shard row past absorb.
func TestShardMergeRowsCopiedOnAbsorb(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const shards, perShard, k = 4, 60, 10
	type row struct {
		id    int64
		score float64
	}
	var all []row
	inputs := make([]ShardInput, shards)
	for s := 0; s < shards; s++ {
		scores := make([]float64, perShard)
		for i := range scores {
			scores[i] = rng.Float64() * 100
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		for i, sc := range scores {
			all = append(all, row{int64(s*perShard + i), sc})
		}
		// StartWidth 1: the channel holds at most 2 rows.
		inputs[s] = ShardInput{Op: newRingShard(s*perShard, 2, scores), Ceiling: math.Inf(1)}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].score > all[j].score })
	for run := 0; run < 20; run++ {
		m, err := NewShardMerge(inputs, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		m.StartWidth = 1
		out, err := Collect(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != k {
			t.Fatalf("run %d: %d rows, want %d", run, len(out), k)
		}
		for i, tup := range out {
			if got := (row{tup[0].AsInt(), tup[1].AsFloat()}); got != all[i] || tup[2].AsInt() != int64(i+1) {
				t.Fatalf("run %d, rank %d: row %v (rank column %v), want %v", run, i+1, got, tup[2], all[i])
			}
		}
	}
}

package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rankopt/internal/relation"
)

// This file is the scatter-gather serving tier's executor half: ShardMerge,
// the coordinator operator. It runs each shard's pipeline on its own worker
// goroutine, whose context is the gather's record of the shard, gathers the
// shard streams, and applies the paper's Section-3 bounding argument across
// shards: every shard emits its local top-k in descending score order, so a
// shard's last-emitted score (or, before it has emitted anything, an
// a-priori ceiling computed from shard statistics) bounds everything it can
// still produce. Once the global top-k buffer is full, any shard whose bound
// cannot beat the k-th buffered score is stopped immediately — and a shard
// whose ceiling already fails the test is never started at all.

// ShardInput is one shard's pipeline as seen by the coordinator.
type ShardInput struct {
	// Op is the root of the shard-local plan. It must emit tuples in
	// descending score order (the engine hands the coordinator per-shard
	// OpLimit→OpRank roots, which do).
	Op Operator
	// Ceiling is an a-priori upper bound on any score the shard can produce,
	// typically derived from shard statistics. It must be a true bound; use
	// math.Inf(1) when unknown. The zero value 0 is a real (and very tight)
	// bound, so forgetting to set Ceiling silently prunes shards.
	Ceiling float64
}

// Shard outcome causes, one per way a shard's stream can end.
const (
	// ShardCausePruned: never started — its a-priori ceiling could not beat
	// the k-th score by the time its launch turn came.
	ShardCausePruned = "pruned"
	// ShardCauseEarlyStopped: stopped mid-stream once its live bound (last
	// emitted score) fell to or below the k-th score.
	ShardCauseEarlyStopped = "early_stopped"
	// ShardCauseExhausted: ran to completion.
	ShardCauseExhausted = "exhausted"
	// ShardCauseError: its pipeline failed; the error aborted the query.
	ShardCauseError = "error"
)

// ShardOutcome is one shard's row of the coordinator's post-mortem: what the
// statistics promised before the shard ran (the a-priori ceiling), what the
// bounds had proved by the moment the coordinator stopped caring (the live
// bound at prune/stop/exhaust time), how much was actually pulled, and why
// the stream ended. EXPLAIN ANALYZE renders these as the shard table under
// the merge node; ceiling-vs-bound is the shard-level analogue of the
// rank-join est-vs-actual depths.
type ShardOutcome struct {
	Shard   int     `json:"shard"`
	Ceiling float64 `json:"ceiling"`
	// Bound is the shard's upper bound at decision time: the ceiling for a
	// pruned shard, the last-emitted score for a stopped or exhausted one.
	Bound float64 `json:"bound"`
	// Pulled counts the tuples the coordinator consumed from this shard.
	Pulled int `json:"tuples_pulled"`
	// Cause is one of the ShardCause* constants ("" for a shard of a query
	// that aborted before this shard's fate was decided).
	Cause string `json:"cause"`
	// StartAt / EndAt delimit the shard worker's run, for per-shard trace
	// lanes; zero for pruned shards. Coordinator-local, not serialized.
	StartAt time.Time `json:"-"`
	EndAt   time.Time `json:"-"`
}

// ShardMergeStats reports what the coordinator did — the per-query analogue
// of the rank-join depths: how many shards ran at all, how many were stopped
// by the bounding argument, and how much shard output the bounds saved.
type ShardMergeStats struct {
	// Shards is the total shard count; Started of those were launched.
	Shards  int `json:"shards"`
	Started int `json:"started"`
	// Pruned shards were never started: their a-priori ceiling could not beat
	// the k-th score by the time their turn came.
	Pruned int `json:"pruned"`
	// EarlyStopped shards were stopped mid-stream once their bound fell to
	// or below the k-th score.
	EarlyStopped int `json:"early_stopped"`
	// Exhausted shards ran to completion.
	Exhausted int `json:"exhausted"`
	// TuplesPulled counts shard tuples the coordinator consumed; TuplesSaved
	// counts shard output the bounds avoided (k minus the pull depth, summed
	// over pruned and early-stopped shards).
	TuplesPulled int `json:"tuples_pulled"`
	TuplesSaved  int `json:"tuples_saved"`
	// KthScore is the final k-th (lowest surviving) score, NaN when fewer
	// than one result was produced.
	KthScore float64 `json:"kth_score"`
	// PerShard holds one outcome row per shard, indexed by shard number.
	PerShard []ShardOutcome `json:"per_shard,omitempty"`
}

// ShardMerge is the coordinator operator: it runs the shard pipelines on
// worker goroutines and produces the global top-k in descending score order,
// using each shard's bound (see shardRun) to stop, at once, any shard whose
// best possible remaining score cannot beat the current k-th result. At most StartWidth shards run concurrently;
// the rest wait in descending-ceiling order and are pruned without ever
// starting when their ceiling fails the same test. Like Sort, the merge is a blocking operator:
// the gather runs inside Open and Next replays the buffered winners. A merge
// is reopenable with K, the ceilings and Progress rewritten in between: it
// keeps the gather's scaffolding and allocates per gather only what it hands
// out, the answer block and the PerShard rows.
type ShardMerge struct {
	inputs []ShardInput
	// K is the global top-k bound, positive.
	K int
	// StartWidth caps concurrently running shards; 0 means GOMAXPROCS.
	StartWidth int
	// Progress, when non-nil, receives the gather's live rank-aware progress
	// (buffered count, k-th score vs best live bound, shard liveness) with a
	// few atomic stores per tuple; nil costs one nil compare.
	Progress *Progress
	schema   *relation.Schema
	scoreCol int
	rankCol  int

	budget *Budget
	acct   accountant
	// block holds the kept rows: absorb copies each row it keeps into it, so
	// the gather holds no shard row once absorb returns.
	block tupleArena
	// out holds the winners best first, their rows in block; Next replays
	// out[pos:].
	out   topHeap[relation.Tuple]
	pos   int
	stats ShardMergeStats

	// The gather's scaffolding, kept across gathers: one record per shard
	// (see shardRun), the launch order, the workers' channel and join, and
	// the abort channel, which a gather that aborts closes and the next
	// replaces.
	runs  []shardRun
	order []int
	msgs  chan shardMsg
	abort chan struct{}
	wg    sync.WaitGroup
}

// NewShardMerge builds the coordinator over the shard inputs for a global
// top-k of k tuples, charging the merge buffer against budget (nil = no
// limits). Every input must share the shard schema, whose trailing columns
// are the score and rank appended by the shard pipelines' RankAssign; the
// coordinator merges on the score column and rewrites the rank column to the
// global 1..k (per-shard ranks are locally correct only).
func NewShardMerge(inputs []ShardInput, k int, budget *Budget) (*ShardMerge, error) {
	if len(inputs) == 0 {
		return nil, errors.New("exec: ShardMerge needs at least one shard")
	}
	if k <= 0 {
		return nil, fmt.Errorf("exec: ShardMerge k %d must be positive", k)
	}
	schema := inputs[0].Op.Schema()
	scoreCol, rankCol := -1, -1
	for i := schema.Len() - 1; i >= 0; i-- {
		switch schema.Column(i).Name {
		case "score":
			if scoreCol < 0 {
				scoreCol = i
			}
		case "rank":
			if rankCol < 0 {
				rankCol = i
			}
		}
	}
	if scoreCol < 0 {
		return nil, fmt.Errorf("exec: ShardMerge input schema %s has no score column", schema)
	}
	for i, in := range inputs[1:] {
		if in.Op.Schema().Len() != schema.Len() {
			return nil, fmt.Errorf("exec: shard %d schema %s does not match shard 0 schema %s",
				i+1, in.Op.Schema(), schema)
		}
	}
	return &ShardMerge{inputs: inputs, K: k, schema: schema, scoreCol: scoreCol, rankCol: rankCol,
		budget: budget}, nil
}

// Schema implements Operator.
func (m *ShardMerge) Schema() *relation.Schema { return m.schema }

// Stats returns the coordinator's counters for the last gather. Valid after
// Open returns (the gather is blocking), including after Close.
func (m *ShardMerge) Stats() ShardMergeStats { return m.stats }

// Open implements Operator: the whole scatter-gather runs here. On
// error, every opened shard pipeline has already been closed and every
// worker joined, and pending shards were never opened — the Operator
// contract's Open-failure guarantee, extended across goroutines.
func (m *ShardMerge) Open(ctx context.Context) error {
	m.acct.releaseAll()
	m.acct.budget = m.budget.bound()
	m.out, m.pos = m.out[:0], 0
	m.stats = ShardMergeStats{Shards: len(m.inputs), KthScore: math.NaN(),
		PerShard: make([]ShardOutcome, len(m.inputs))}
	for i := range m.stats.PerShard {
		m.stats.PerShard[i] = ShardOutcome{Shard: i, Ceiling: m.inputs[i].Ceiling}
	}
	m.Progress.SetShards(len(m.inputs))
	if err := m.gather(ctx); err != nil {
		m.acct.releaseAll()
		return err
	}
	return nil
}

// shardRun is one shard's record in a gather. Once the shard starts it is
// also the worker's whole context: Err reports stop, which the gather sets,
// and Done is the gather's abort channel (a worker stopped alone needs no
// wakeup: the gather receives until every worker has reported). Deadline and
// every Value but gatherKey's are the session's.
type shardRun struct {
	session context.Context // nil until the shard starts
	done    <-chan struct{}
	stop    atomic.Bool
	// bound is the best score the shard can still produce: its a-priori
	// ceiling, then its last-emitted score (it emits in descending order),
	// and -Inf once it is pruned or done.
	bound float64
	// live, stopped and pulled are the gather's: the shard runs, was
	// stopped by the bound test, and had this many rows consumed.
	live, stopped bool
	pulled        int
}

// Deadline implements context.Context: the session's.
func (r *shardRun) Deadline() (time.Time, bool) { return r.session.Deadline() }

// Done implements context.Context: closed when the gather aborts.
func (r *shardRun) Done() <-chan struct{} { return r.done }

// Err implements context.Context: context.Canceled once the gather stopped
// the shard or aborted.
func (r *shardRun) Err() error {
	if r.stop.Load() {
		return context.Canceled
	}
	return nil
}

// gatherKey is the context key a shard worker's context answers.
type gatherKey struct{}

// Value implements context.Context: true under gatherKey, every other key
// from the session's context.
func (r *shardRun) Value(key any) any {
	if key == (gatherKey{}) {
		return true
	}
	return r.session.Value(key)
}

// readByGather reports whether ctx is or derives from a shard worker's
// context. The gather copies every row it keeps as it absorbs it, and closes
// the shard's pipeline only once it has absorbed the shard's last row, so an
// operator under it may carve its rows from pooled chunks it recycles at its
// own Close instead of allocating rows its consumer owns.
func readByGather(ctx context.Context) bool {
	b, _ := ctx.Value(gatherKey{}).(bool)
	return b
}

func (m *ShardMerge) gather(ctx context.Context) error {
	n := len(m.inputs)
	width := m.StartWidth
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	// The channel's buffer, two messages per shard that can run at once, is
	// the backpressure credit that keeps fast shards from running far ahead
	// of the gather. A gather leaves it empty for the next.
	if credit := min(2*width, 2*n); cap(m.msgs) != credit {
		m.msgs = make(chan shardMsg, credit)
	}
	if len(m.runs) != n {
		m.runs, m.order = make([]shardRun, n), make([]int, n)
	}
	if m.abort == nil {
		m.abort = make(chan struct{})
	}
	runs := m.runs
	for i, in := range m.inputs {
		run := &runs[i]
		run.stop.Store(false)
		run.bound, run.live, run.stopped, run.pulled = in.Ceiling, false, false, 0
		if math.IsNaN(in.Ceiling) {
			run.bound = math.Inf(1) // a NaN ceiling bounds nothing
		}
	}
	// Launch order: best ceiling first, so the k-th score rises as fast as
	// possible and later shards face the hardest possible test.
	order := m.order
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return compareScoreDesc(m.inputs[a].Ceiling, m.inputs[b].Ceiling)
	})

	hint := sizeHint(float64(m.K))
	h := m.out[:0]
	if cap(h) < hint {
		h = make(topHeap[relation.Tuple], 0, hint)
	}
	var (
		next    int // cursor into order: shards not yet started or pruned
		running int
		failure error
	)
	m.block = tupleArena{}
	m.block.reserve(hint, m.schema.Len())
	full := func() bool { return len(h) >= m.K }
	kth := func() float64 { return h[0].Score }
	// fail records the gather's first error and stops every worker.
	fail := func(err error) {
		if failure == nil {
			failure = err
			for i := range runs {
				runs[i].stop.Store(true)
			}
			close(m.abort)
			m.abort = nil
		}
	}
	// beaten reports that shard i cannot contribute to the final top-k.
	beaten := func(i int) bool { return full() && runs[i].bound <= kth() }
	startMore := func() {
		for failure == nil && running < width && next < n {
			i := order[next]
			next++
			if beaten(i) {
				// The bound a pruned shard lost to is its own ceiling.
				m.stats.PerShard[i].Bound = runs[i].bound
				m.stats.PerShard[i].Cause = ShardCausePruned
				runs[i].bound = math.Inf(-1)
				m.stats.Pruned++
				m.stats.TuplesSaved += m.K
				m.Progress.ShardFinished(false)
				continue
			}
			run := &runs[i]
			run.session, run.done = ctx, m.abort
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				opened, err := runShard(run, i, m.inputs[i].Op, m.msgs)
				m.msgs <- shardMsg{shard: i, done: true, opened: opened, err: err}
			}()
			run.live = true
			running++
			m.stats.Started++
			m.stats.PerShard[i].StartAt = time.Now()
			m.Progress.ShardStarted()
		}
	}
	// reap early-stops every live shard whose bound fell to or below the
	// k-th score: stop its worker now, not at Close.
	reap := func() {
		if !full() {
			return
		}
		for i := range runs {
			run := &runs[i]
			if run.live && !run.stopped && run.bound <= kth() {
				m.stats.PerShard[i].Bound = run.bound
				m.stats.PerShard[i].Cause = ShardCauseEarlyStopped
				run.stop.Store(true)
				run.stopped = true
				m.stats.EarlyStopped++
				if saved := m.K - run.pulled; saved > 0 {
					m.stats.TuplesSaved += saved
				}
			}
		}
	}

	// Every started worker ends by sending its done report, so receiving until
	// none is running is what lets each one exit.
	startMore()
	for running > 0 {
		// Once aborting, every worker is stopped: stop watching ctx and keep
		// receiving so each can deliver its remaining tuples and done.
		var quit <-chan struct{}
		if failure == nil {
			quit = ctx.Done()
		}
		var msg shardMsg
		select {
		case msg = <-m.msgs:
		case <-quit:
			fail(CtxErr(ctx))
			continue
		}
		run := &runs[msg.shard]
		if msg.done {
			running--
			run.live = false
			err := msg.err
			if msg.opened {
				// Every tuple of the shard travelled ahead of this message and
				// absorb has copied or dropped it: nothing reads the
				// pipeline's rows any more.
				if cerr := m.inputs[msg.shard].Op.Close(); err == nil {
					err = cerr
				}
			}
			wasStopped := run.stopped
			out := &m.stats.PerShard[msg.shard]
			if !wasStopped {
				out.Bound = run.bound
			}
			run.bound = math.Inf(-1)
			out.EndAt = time.Now()
			out.Pulled = run.pulled
			switch {
			case err == nil:
				if !wasStopped {
					m.stats.Exhausted++
					out.Cause = ShardCauseExhausted
				}
				// A stopped shard that still drained cleanly keeps its
				// early_stopped cause: the bound test ended it.
			case wasStopped && errors.Is(err, ErrQueryCancelled):
				// The stop we asked for; not a query failure.
			default:
				out.Cause = ShardCauseError
				fail(err)
			}
			m.Progress.ShardFinished(true)
			if failure == nil {
				reap()
				startMore()
			}
			continue
		}
		if failure != nil {
			continue
		}
		if err := m.absorb(msg, runs, &h); err != nil {
			fail(err)
			continue
		}
		reap()
		startMore()
	}
	m.wg.Wait()
	if failure != nil {
		clear(h)
		m.out = h[:0]
		return failure
	}
	m.Progress.SetMerging()

	// The winners, best first, are the block rows absorb copied them into,
	// with the rank column rewritten to the global rank.
	h.SortBest()
	if m.rankCol >= 0 {
		for i, e := range h {
			e.Val[m.rankCol] = relation.Int(int64(i + 1))
		}
	}
	m.out = h
	if len(h) > 0 {
		if v, ok := h[len(h)-1].Val[m.scoreCol].Float64(); ok {
			m.stats.KthScore = v
		}
	}
	return nil
}

// shardMsg is one event on the gather's channel: a tuple from a shard, or the
// shard's completion (done, with whether its pipeline opened and its
// terminal error if any). A shard's done travels behind its own tuples in the
// one FIFO, so it cannot be received before them — on a channel of its own
// it could, and the gather would count the shard finished and end with those
// tuples unread, or close the pipeline under them.
type shardMsg struct {
	shard        int
	tuple        relation.Tuple
	done, opened bool
	err          error
}

// runShard is shard i's worker: it opens the pipeline and drains it to
// exhaustion or cancellation, forwarding its tuples on msgs, and reports
// whether Open succeeded. It never closes the pipeline: the gather does, when
// it receives the done message the worker sends next (see shardMsg). The
// pipeline thus passes from one goroutine to the other through the channel,
// and none of its rows outlives its Close.
func runShard(ctx context.Context, i int, op Operator, msgs chan<- shardMsg) (opened bool, err error) {
	if err := op.Open(ctx); err != nil {
		return false, err
	}
	for {
		// One unconditional check per tuple: a stop must not cost more than
		// one in-flight tuple of extra shard work.
		if err := CtxErr(ctx); err != nil {
			return true, err
		}
		t, ok, err := op.Next()
		if err != nil || !ok {
			return true, err
		}
		select {
		case msgs <- shardMsg{shard: i, tuple: t}:
		case <-ctx.Done():
			return true, CtxErr(ctx)
		}
	}
}

// absorb folds one shard tuple into its shard's bound and the top-k heap.
// Shards emit in descending order, so the score becomes the bound; a score
// above the bound (beyond rounding slack) or a NaN breaks that contract and
// fails the gather with an *OrderViolationError. A tuple the heap keeps is
// copied into a block row first — a new one while the heap fills, else the
// row of the entry it evicts — so the shard may reuse its row once absorb
// returns.
func (m *ShardMerge) absorb(msg shardMsg, runs []shardRun, h *topHeap[relation.Tuple]) error {
	score := math.Inf(-1) // NULL scores sort after everything, like ORDER BY
	if v := msg.tuple[m.scoreCol]; !v.IsNull() {
		if f, ok := v.Float64(); ok {
			score = f
		}
	}
	run := &runs[msg.shard]
	if u := run.bound; math.IsNaN(score) || score > u+orderSlack(u) {
		return fmt.Errorf("exec: shard stream broke the descending-order contract: %w",
			&OrderViolationError{Source: msg.shard, Score: score, Bound: u})
	}
	run.bound = min(run.bound, score)
	// Equal scores keep the lower shard, then its earlier arrival: the tie
	// key is the shard number over the shard's arrival count.
	tie := int64(msg.shard)<<32 | int64(run.pulled)
	run.pulled++
	m.stats.TuplesPulled++
	// The slot conditions are Offer's own: it grows the heap below k and
	// replaces the weakest entry for a strictly better score.
	var row relation.Tuple
	switch {
	case len(*h) < m.K:
		row = m.block.alloc(m.schema.Len())
	case score > (*h)[0].Score:
		row = (*h)[0].Val
	}
	if row != nil {
		copy(row, msg.tuple)
		if h.Offer(heapEntry[relation.Tuple]{Score: score, Tie: tie, Val: row}, m.K) {
			if err := m.acct.charge(1); err != nil {
				return err
			}
		}
	}
	if m.Progress != nil {
		m.Progress.SetEmitted(int64(len(*h)))
		if len(*h) >= m.K {
			m.Progress.SetKth((*h)[0].Score)
		}
		best := math.Inf(-1)
		for i := range runs {
			best = max(best, runs[i].bound)
		}
		m.Progress.SetBound(best)
	}
	return nil
}

// compareScoreDesc orders two scores best first. A NaN is unordered against
// everything, itself included, as under `>`: it compares equal.
func compareScoreDesc(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// Next implements Operator, replaying the merged winners in rank order.
func (m *ShardMerge) Next() (relation.Tuple, bool, error) {
	if m.pos >= len(m.out) {
		return nil, false, nil
	}
	t := m.out[m.pos].Val
	m.pos++
	return t, true, nil
}

// Close implements Operator, releasing the buffered winners' budget charge
// and dropping the answer block; the heap keeps its capacity for the next
// gather.
func (m *ShardMerge) Close() error {
	m.acct.releaseAll()
	clear(m.out)
	m.out, m.pos, m.block = m.out[:0], 0, tupleArena{}
	return nil
}

// OrderViolationError reports a source that broke the descending-order
// contract the gather's shard bounds depend on: it emitted a score above its own bound,
// or a NaN, which cannot be ordered at all. Silently keeping the stale-tight
// bound would let threshold-style pruning (the sharded merge) cut a source
// that could still beat the k-th score — wrong answers instead of a loud
// failure.
type OrderViolationError struct {
	Source int
	Score  float64
	Bound  float64
}

func (e *OrderViolationError) Error() string {
	if math.IsNaN(e.Score) {
		return fmt.Sprintf("exec: source %d emitted NaN score (bound %v) — scores must be orderable and descending", e.Source, e.Bound)
	}
	return fmt.Sprintf("exec: source %d emitted score %v above its bound %v — sources must emit in descending order", e.Source, e.Score, e.Bound)
}

// orderSlack is the tolerance around bound u when asserting descending order:
// a-priori ceilings and stream scores are computed by differently ordered
// float arithmetic, so exact comparison would misfire on rounding noise.
func orderSlack(u float64) float64 {
	a := math.Abs(u)
	if a < 1 || math.IsInf(a, 0) {
		a = 1
	}
	return 1e-9 * a
}

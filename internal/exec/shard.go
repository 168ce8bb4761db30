package exec

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"rankopt/internal/ranking"
	"rankopt/internal/relation"
)

// This file is the scatter-gather serving tier's executor half. ShardScatter
// fans one query out to per-shard operator pipelines, each on its own worker
// goroutine under its own cancellable context; ShardMerge is the coordinator
// operator that gathers the shard streams and applies the paper's Section-3
// bounding argument across shards: every shard emits its local top-k in
// descending score order, so a shard's last-emitted score (or, before it has
// emitted anything, an a-priori ceiling computed from shard statistics)
// bounds everything it can still produce. Once the global top-k buffer is
// full, any shard whose bound cannot beat the k-th buffered score is
// cancelled immediately — and a shard whose ceiling already fails the test is
// never started at all.

// ShardInput is one shard's pipeline as seen by the coordinator.
type ShardInput struct {
	// Op is the root of the shard-local plan. It must emit tuples in
	// descending score order (the engine hands the coordinator per-shard
	// OpLimit→OpRank roots, which do).
	Op Operator
	// Ceiling is an a-priori upper bound on any score the shard can produce,
	// typically derived from shard statistics. It must be a true bound; use
	// math.Inf(1) when unknown. The zero value 0 is a real (and very tight)
	// bound, so forgetting to set Ceiling silently prunes shards — build
	// inputs with ShardInputs when no statistics are available.
	Ceiling float64
}

// ShardInputs wraps bare operators as unbounded shard inputs (Ceiling +Inf).
func ShardInputs(ops ...Operator) []ShardInput {
	ins := make([]ShardInput, len(ops))
	for i, op := range ops {
		ins[i] = ShardInput{Op: op, Ceiling: math.Inf(1)}
	}
	return ins
}

// ShardMsg is one event on a scatter's message stream: a tuple from a shard,
// or the shard's completion (Done=true, with the shard's terminal error if
// any). Per shard, all tuple messages precede its done message.
type ShardMsg struct {
	Shard int
	Tuple relation.Tuple
	Done  bool
	Err   error
}

// ShardScatter runs shard pipelines on worker goroutines and multiplexes
// their output onto one bounded message channel — the fan-out half of the
// scatter-gather tier. Each Started shard gets its own context derived from
// the query context, so Stop cancels exactly one shard while the query keeps
// running, and a query-wide cancellation reaches every worker.
//
// Contract: after Start has been called, the consumer must keep receiving
// until it has seen a Done message from every started shard: workers block
// sending, a cancelled worker abandons its pending tuple via its context, and
// every worker ends by sending its Done on the same channel. Call Wait after
// the last Done to join the workers. Workers own their pipeline: each worker
// Opens, drains, and Closes its own ShardInput.Op, so no cross-goroutine
// operator access ever happens and a stopped shard releases its resources
// before reporting Done.
type ShardScatter struct {
	inputs []ShardInput
	// msgs carries tuples and Done reports alike. A shard's Done travels
	// behind its own tuples in the one FIFO, so it cannot be received before
	// them — on a channel of its own it could, and a coordinator that counted
	// the shard finished then ended the gather with those tuples unread.
	msgs    chan ShardMsg
	cancels []context.CancelFunc
	wg      sync.WaitGroup
}

// NewShardScatter prepares a scatter over the inputs with a buffer of buf
// messages — the backpressure credit that keeps fast shards from running
// arbitrarily far ahead of the coordinator.
func NewShardScatter(inputs []ShardInput, buf int) *ShardScatter {
	if buf < 1 {
		buf = 1
	}
	return &ShardScatter{
		inputs:  inputs,
		msgs:    make(chan ShardMsg, buf),
		cancels: make([]context.CancelFunc, len(inputs)),
	}
}

// Start launches shard i's worker under a context derived from ctx.
func (s *ShardScatter) Start(ctx context.Context, i int) {
	sctx, cancel := context.WithCancel(ctx)
	s.cancels[i] = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := s.drain(sctx, i)
		s.msgs <- ShardMsg{Shard: i, Done: true, Err: err}
	}()
}

// drain runs shard i's pipeline to exhaustion (or cancellation), forwarding
// tuples. The worker closes the pipeline on every exit path.
func (s *ShardScatter) drain(ctx context.Context, i int) error {
	op := s.inputs[i].Op
	if err := op.Open(ctx); err != nil {
		return err
	}
	for {
		// One unconditional check per tuple: a Stop must not cost more than
		// one in-flight tuple of extra shard work.
		if err := CtxErr(ctx); err != nil {
			_ = op.Close()
			return err
		}
		t, ok, err := op.Next()
		if err != nil {
			_ = op.Close()
			return err
		}
		if !ok {
			return op.Close()
		}
		select {
		case s.msgs <- ShardMsg{Shard: i, Tuple: t}:
		case <-ctx.Done():
			_ = op.Close()
			return CtxErr(ctx)
		}
	}
}

// Recv returns the next message across all started shards. Tuple messages of
// a shard are delivered before its Done message.
func (s *ShardScatter) Recv() ShardMsg { return <-s.msgs }

// RecvCtx is Recv that also aborts when ctx is done, returning its typed
// error instead of a message.
func (s *ShardScatter) RecvCtx(ctx context.Context) (ShardMsg, error) {
	select {
	case m := <-s.msgs:
		return m, nil
	case <-ctx.Done():
		return ShardMsg{}, CtxErr(ctx)
	}
}

// Stop cancels shard i's context. The worker unblocks, closes its pipeline,
// and reports Done (typically with ErrQueryCancelled).
func (s *ShardScatter) Stop(i int) {
	if c := s.cancels[i]; c != nil {
		c()
	}
}

// StopAll cancels every started shard.
func (s *ShardScatter) StopAll() {
	for _, c := range s.cancels {
		if c != nil {
			c()
		}
	}
}

// Wait joins all worker goroutines and releases the per-shard contexts. Only
// call it after every started shard's Done message has been received.
func (s *ShardScatter) Wait() {
	s.wg.Wait()
	for i, c := range s.cancels {
		if c != nil {
			c()
			s.cancels[i] = nil
		}
	}
}

// Shard outcome causes, one per way a shard's stream can end.
const (
	// ShardCausePruned: never started — its a-priori ceiling could not beat
	// the k-th score by the time its launch turn came.
	ShardCausePruned = "pruned"
	// ShardCauseEarlyStopped: cancelled mid-stream once its live bound (last
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
	// EarlyStopped shards were cancelled mid-stream once their bound fell to
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

// mergeEntry is one buffered candidate in the coordinator's top-k heap.
type mergeEntry struct {
	score float64
	shard int
	seq   int
	tuple relation.Tuple
}

// mergeHeap is a min-heap on score keeping the current global top-k; among
// equal scores the later (shard, seq) sorts lower so evictions and the final
// order are deterministic.
type mergeHeap []mergeEntry

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	if h[i].shard != h[j].shard {
		return h[i].shard > h[j].shard
	}
	return h[i].seq > h[j].seq
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeEntry)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = mergeEntry{}
	*h = old[:n-1]
	return e
}

// ShardMerge is the coordinator operator: it gathers the shard pipelines
// through a ShardScatter and produces the global top-k in descending score
// order, using ranking.Bounds to stop pulling from — and immediately cancel —
// any shard whose best possible remaining score cannot beat the current k-th
// result. At most StartWidth shards run concurrently; the rest wait in
// descending-ceiling order and are pruned without ever starting when their
// ceiling fails the same test. Like Sort, the merge is a blocking operator:
// the gather runs inside Open and Next replays the buffered winners.
type ShardMerge struct {
	inputs []ShardInput
	k      int
	// StartWidth caps concurrently running shards; 0 means GOMAXPROCS.
	StartWidth int
	// Progress, when non-nil, receives the gather's live rank-aware progress
	// (buffered count, k-th score vs best live bound, shard liveness) with a
	// few atomic stores per tuple; nil costs one nil compare.
	Progress *Progress
	schema   *relation.Schema
	scoreCol int
	rankCol  int

	acct  accountant
	out   []relation.Tuple
	pos   int
	stats ShardMergeStats
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
	return &ShardMerge{inputs: inputs, k: k, schema: schema, scoreCol: scoreCol, rankCol: rankCol,
		acct: accountant{budget: budget}}, nil
}

// Schema implements Operator.
func (m *ShardMerge) Schema() *relation.Schema { return m.schema }

// Stats returns the coordinator's counters for the last gather. Valid after
// Open returns (the gather is blocking), including after Close.
func (m *ShardMerge) Stats() ShardMergeStats { return m.stats }

// Open implements Operator: the whole scatter-gather runs here. On
// error, every started shard worker has already closed its pipeline and been
// joined, and pending shards were never opened — the Operator contract's
// Open-failure guarantee, extended across goroutines.
func (m *ShardMerge) Open(ctx context.Context) error {
	m.acct.releaseAll()
	m.out, m.pos = nil, 0
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

func (m *ShardMerge) gather(ctx context.Context) error {
	n := len(m.inputs)
	width := m.StartWidth
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}

	bounds := ranking.NewBounds(n)
	for i, in := range m.inputs {
		bounds.SetCeiling(i, in.Ceiling)
	}
	// Launch order: best ceiling first, so the k-th score rises as fast as
	// possible and later shards face the hardest possible test.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return compareScoreDesc(m.inputs[a].Ceiling, m.inputs[b].Ceiling)
	})

	buf := 2 * width
	if buf > 2*n {
		buf = 2 * n
	}
	scatter := NewShardScatter(m.inputs, buf)

	var (
		h       mergeHeap
		seq     int
		next    int // cursor into order: shards not yet started or pruned
		running int
		live    = make([]bool, n)
		stopped = make([]bool, n)
		pulled  = make([]int, n)
		failure error
	)
	full := func() bool { return len(h) >= m.k }
	kth := func() float64 { return h[0].score }
	fail := func(err error) {
		if failure == nil {
			failure = err
		}
		scatter.StopAll()
	}
	// beaten reports that shard i cannot contribute to the final top-k.
	beaten := func(i int) bool { return full() && bounds.Upper(i) <= kth() }
	startMore := func() {
		for failure == nil && running < width && next < n {
			i := order[next]
			next++
			if beaten(i) {
				// The bound a pruned shard lost to is its own ceiling; record
				// it before Exhaust collapses Upper(i) to -Inf.
				m.stats.PerShard[i].Bound = bounds.Upper(i)
				m.stats.PerShard[i].Cause = ShardCausePruned
				bounds.Exhaust(i)
				m.stats.Pruned++
				m.stats.TuplesSaved += m.k
				m.Progress.ShardFinished(false)
				continue
			}
			scatter.Start(ctx, i)
			live[i] = true
			running++
			m.stats.Started++
			m.stats.PerShard[i].StartAt = time.Now()
			m.Progress.ShardStarted()
		}
	}
	// reap early-stops every live shard whose bound fell to or below the
	// k-th score: cancel its context now, not at Close.
	reap := func() {
		if !full() {
			return
		}
		for i := 0; i < n; i++ {
			if live[i] && !stopped[i] && bounds.Upper(i) <= kth() {
				m.stats.PerShard[i].Bound = bounds.Upper(i)
				m.stats.PerShard[i].Cause = ShardCauseEarlyStopped
				scatter.Stop(i)
				stopped[i] = true
				m.stats.EarlyStopped++
				if saved := m.k - pulled[i]; saved > 0 {
					m.stats.TuplesSaved += saved
				}
			}
		}
	}

	startMore()
	for running > 0 {
		var msg ShardMsg
		if failure == nil {
			var err error
			msg, err = scatter.RecvCtx(ctx)
			if err != nil {
				fail(err)
				continue
			}
		} else {
			// Aborting: every worker is cancelled; keep draining so each can
			// deliver its remaining tuples and its Done report.
			msg = scatter.Recv()
		}
		if msg.Done {
			running--
			live[msg.Shard] = false
			wasStopped := stopped[msg.Shard]
			out := &m.stats.PerShard[msg.Shard]
			if !wasStopped {
				// Capture the live bound before Exhaust collapses it.
				out.Bound = bounds.Upper(msg.Shard)
			}
			bounds.Exhaust(msg.Shard)
			out.EndAt = time.Now()
			out.Pulled = pulled[msg.Shard]
			switch {
			case msg.Err == nil:
				if !wasStopped {
					m.stats.Exhausted++
					out.Cause = ShardCauseExhausted
				}
				// A stopped shard that still drained cleanly keeps its
				// early_stopped cause: the bound test ended it.
			case wasStopped && errors.Is(msg.Err, ErrQueryCancelled):
				// The stop we asked for; not a query failure.
			default:
				out.Cause = ShardCauseError
				fail(msg.Err)
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
		if err := m.absorb(msg, bounds, pulled, &h, &seq); err != nil {
			fail(err)
			continue
		}
		reap()
		startMore()
	}
	scatter.Wait()
	if failure != nil {
		return failure
	}
	m.Progress.SetMerging()

	// Assemble the winners: pop ascending, fill descending, copy each tuple
	// and rewrite its rank column to the global rank.
	out := make([]relation.Tuple, len(h))
	for i := len(out) - 1; i >= 0; i-- {
		e := heap.Pop(&h).(mergeEntry)
		t := make(relation.Tuple, len(e.tuple))
		copy(t, e.tuple)
		if m.rankCol >= 0 {
			t[m.rankCol] = relation.Int(int64(i + 1))
		}
		out[i] = t
	}
	m.out = out
	if len(out) > 0 {
		last := out[len(out)-1]
		if v, ok := last[m.scoreCol].Float64(); ok {
			m.stats.KthScore = v
		}
	}
	return nil
}

// absorb folds one shard tuple into the bounds and the top-k heap.
func (m *ShardMerge) absorb(msg ShardMsg, bounds *ranking.Bounds, pulled []int, h *mergeHeap, seq *int) error {
	score := math.Inf(-1) // NULL scores sort after everything, like ORDER BY
	if v := msg.Tuple[m.scoreCol]; !v.IsNull() {
		if f, ok := v.Float64(); ok {
			score = f
		}
	}
	if err := bounds.Observe(msg.Shard, score); err != nil {
		return fmt.Errorf("exec: shard stream broke the descending-order contract: %w", err)
	}
	pulled[msg.Shard]++
	m.stats.TuplesPulled++
	e := mergeEntry{score: score, shard: msg.Shard, seq: *seq, tuple: msg.Tuple}
	*seq++
	if len(*h) < m.k {
		if err := m.acct.charge(1); err != nil {
			return err
		}
		heap.Push(h, e)
	} else if score > (*h)[0].score {
		(*h)[0] = e
		heap.Fix(h, 0)
	}
	if m.Progress != nil {
		m.Progress.SetEmitted(int64(len(*h)))
		if len(*h) >= m.k {
			m.Progress.SetKth((*h)[0].score)
		}
		best := math.Inf(-1)
		for i := range m.inputs {
			if u := bounds.Upper(i); u > best {
				best = u
			}
		}
		m.Progress.SetBound(best)
	}
	return nil
}

// Next implements Operator, replaying the merged winners in rank order.
func (m *ShardMerge) Next() (relation.Tuple, bool, error) {
	if m.pos >= len(m.out) {
		return nil, false, nil
	}
	t := m.out[m.pos]
	m.pos++
	return t, true, nil
}

// Close implements Operator, releasing the buffered winners' budget charge.
func (m *ShardMerge) Close() error {
	m.acct.releaseAll()
	m.out, m.pos = nil, 0
	return nil
}

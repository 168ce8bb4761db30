package exec

import (
	"context"
	"time"

	"rankopt/internal/relation"
)

// OpStats are the runtime counters EXPLAIN ANALYZE reports for one operator.
// Every field is a plain scalar — no interfaces, maps, or slices — so
// collecting them on the per-tuple path costs a handful of integer stores
// and zero allocations. Depth and queue fields are filled from a rank
// operator's Stats, heap and sort fields from the wrapped operator's own
// gauges (see analyzeGauges); they stay zero for operators without that
// internal state.
type OpStats struct {
	// Opens counts successful Open calls: 1 after a run, 0 after a failed
	// Open.
	Opens int64
	// NextCalls counts Next invocations, including the exhausted ones.
	NextCalls int64
	// TuplesOut counts tuples returned by Next. For any operator the tuples
	// a parent pulled from it equal its TuplesOut, so per-child input counts
	// come from the children's collectors.
	TuplesOut int64
	// OpenNanos is the wall time spent inside Open (every call is timed:
	// Open runs once and may do blocking work like materializing an input).
	OpenNanos int64
	// NextNanos is the wall time of the sampled Next calls only; SampledNexts
	// says how many were timed. Scale by NextCalls/SampledNexts to estimate
	// the total (see EstNextNanos).
	NextNanos    int64
	SampledNexts int64
	// BatchCalls and BatchNanos count and time NextBatch invocations. Batch
	// pulls are rare relative to tuples (one per DefaultBatchSize), so every
	// call is timed — no sampling needed.
	BatchCalls int64
	BatchNanos int64

	// LeftDepth and RightDepth are the tuples a rank-join actually consumed
	// from each input — the quantity the Section 4 depth model predicts.
	LeftDepth, RightDepth int64
	// MaxQueue is the ranking-queue high-water mark of a rank-join.
	MaxQueue int64
	// MaxHeap is the bounded-heap high-water mark of a TopK sort.
	MaxHeap int64
	// SortBuffered and SortEmitted are the tuples a Sort materialized and the
	// tuples its consumer read; the incremental sort only ordered the latter.
	SortBuffered, SortEmitted int64
	// SortIndex names the index a Sort walked instead of buffering its
	// input, "" when it buffered.
	SortIndex string
}

// EstNextNanos estimates the total pull-side wall time: the per-tuple Next
// time extrapolated from the sampled calls, plus the fully-timed batch calls.
func (s OpStats) EstNextNanos() int64 {
	var est int64
	if s.SampledNexts > 0 {
		est = s.NextNanos * s.NextCalls / s.SampledNexts
	}
	return est + s.BatchNanos
}

// nextSamplePeriod is the Next-call sampling stride of the Analyzed
// collector: one call in every nextSamplePeriod is wall-timed, keeping the
// two time.Now reads off the common per-tuple path. Must be a power of two
// so the sampling test is a mask, not a division.
const nextSamplePeriod = 32

// analyzeGauges are the internal high-water marks and counters a blocking
// operator hands to its Analyzed collector. Operators without such state
// simply do not implement gaugeReporter.
type analyzeGauges struct {
	maxHeap      int
	sortBuffered int
	sortEmitted  int
	sortIndex    string
}

// gaugeReporter is implemented by the blocking operators with internal gauges
// worth surfacing in EXPLAIN ANALYZE (TopK, Sort); rank operators report
// through StatsReporter.
type gaugeReporter interface {
	gauges() analyzeGauges
}

// Analyzed wraps any operator with EXPLAIN ANALYZE collection: tuple counts
// on every call, wall time on Open and on a 1-in-32 sample of Next calls.
// The wrapper adds no allocation to the per-tuple path; its one map-free
// OpStats struct lives inline. Open starts the counters afresh, so a tree
// reused across sessions reports each session's own figures; gauges reflect
// the wrapped operator's most recent run.
type Analyzed struct {
	In    Operator
	stats OpStats
	src   batchSource
}

// Analyze wraps op with a stats collector.
func Analyze(op Operator) *Analyzed { return &Analyzed{In: op} }

// Schema implements Operator.
func (a *Analyzed) Schema() *relation.Schema { return a.In.Schema() }

// Open implements Operator. A failed Open has, per the Operator contract,
// already closed whatever the inner operator opened, so the wrapper only
// records and propagates.
func (a *Analyzed) Open(ctx context.Context) error {
	a.stats = OpStats{}
	start := time.Now()
	err := a.In.Open(ctx)
	a.stats.OpenNanos = time.Since(start).Nanoseconds()
	if err != nil {
		return err
	}
	a.stats.Opens++
	a.src.reset(ctx, a.In)
	return nil
}

// Next implements Operator.
func (a *Analyzed) Next() (relation.Tuple, bool, error) {
	a.stats.NextCalls++
	if a.stats.NextCalls&(nextSamplePeriod-1) != 0 {
		t, ok, err := a.In.Next()
		if ok {
			a.stats.TuplesOut++
		}
		return t, ok, err
	}
	start := time.Now()
	t, ok, err := a.In.Next()
	a.stats.NextNanos += time.Since(start).Nanoseconds()
	a.stats.SampledNexts++
	if ok {
		a.stats.TuplesOut++
	}
	return t, ok, err
}

// NextBatch implements BatchOperator, so wrapping a vectorized operator in
// EXPLAIN ANALYZE does not knock its pipeline back to per-tuple pulls. Every
// batch call is wall-timed (one pair of time.Now reads per batch is already
// amortized) and TuplesOut counts whole batches.
func (a *Analyzed) NextBatch(out *Batch, max int) (bool, error) {
	a.stats.BatchCalls++
	start := time.Now()
	ok, err := a.src.next(out, max)
	a.stats.BatchNanos += time.Since(start).Nanoseconds()
	if ok {
		a.stats.TuplesOut += int64(out.Len())
	}
	return ok, err
}

// Close implements Operator. The inner operator's gauges are captured before
// it releases them.
func (a *Analyzed) Close() error {
	a.captureGauges()
	return a.In.Close()
}

// captureGauges copies the wrapped operator's depths, queue high-water mark
// and internal gauges into the stats.
func (a *Analyzed) captureGauges() {
	switch o := a.In.(type) {
	case StatsReporter:
		st := o.Stats()
		a.stats.LeftDepth = int64(st.LeftDepth)
		a.stats.RightDepth = int64(st.RightDepth)
		a.stats.MaxQueue = int64(st.MaxQueue)
	case gaugeReporter:
		g := o.gauges()
		a.stats.MaxHeap = int64(g.maxHeap)
		a.stats.SortBuffered = int64(g.sortBuffered)
		a.stats.SortEmitted = int64(g.sortEmitted)
		a.stats.SortIndex = g.sortIndex
	}
}

// ExecStats returns the collected counters (gauges refreshed from the inner
// operator, so it is valid both mid-run and after Close).
func (a *Analyzed) ExecStats() OpStats {
	a.captureGauges()
	return a.stats
}

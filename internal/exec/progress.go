package exec

import (
	"math"
	"sync/atomic"
)

// Progress is a lock-free, shared rank-aware progress block for one running
// query. The executing goroutines (a ShardMerge coordinator, or the root
// drain CollectBatch of a single-path session) store into it; observers (the
// live query registry behind /debug/queries) load from it concurrently.
// Every field is an atomic scalar, so updating costs a handful of stores per
// tuple and snapshotting never blocks execution. All methods are
// nil-receiver safe: an unobserved query carries a nil *Progress at zero
// cost.
type Progress struct {
	// emitted is the number of result tuples produced so far: buffered top-k
	// candidates for a ShardMerge (capped at k), tuples the root drain
	// pulled for a single-path query.
	emitted atomic.Int64
	// kth and bound are float64 bit patterns: the current k-th (lowest
	// surviving) buffered score, and the best score any still-live source
	// could produce. bound-vs-kth is the rank-aware convergence signal — the
	// query can stop as soon as bound ≤ kth. Zero bits mean "unknown";
	// Snapshot reports NaN for unset values.
	kth   atomic.Uint64
	bound atomic.Uint64
	// shardsLive / shardsDone / shardsTotal describe the scatter-gather
	// fan-out; all zero for single-path queries.
	shardsLive  atomic.Int32
	shardsDone  atomic.Int32
	shardsTotal atomic.Int32
	// merging is set once the gather is over and the coordinator is
	// assembling the final winners.
	merging atomic.Bool
}

// ProgressSnapshot is one consistent-enough read of a Progress block (fields
// are loaded independently; monitoring cadence, not transaction cadence).
type ProgressSnapshot struct {
	Emitted     int64
	Kth         float64 // NaN when no k-th score exists yet
	Bound       float64 // NaN when no live bound is known
	ShardsLive  int32
	ShardsDone  int32
	ShardsTotal int32
	Merging     bool
}

// progressUnset is the reserved bit pattern meaning "no score recorded". The
// zero value of the atomics must mean unset so a fresh Progress needs no
// initialization; 0.0 as a real score is stored as negative zero instead,
// whose bit pattern is nonzero.
const progressUnset = 0

func storeScore(a *atomic.Uint64, v float64) {
	if v == 0 {
		v = math.Copysign(0, -1)
	}
	a.Store(math.Float64bits(v))
}

func loadScore(a *atomic.Uint64) float64 {
	bits := a.Load()
	if bits == progressUnset {
		return math.NaN()
	}
	return math.Float64frombits(bits)
}

// AddEmitted bumps the emitted-tuple count by n.
func (p *Progress) AddEmitted(n int64) {
	if p != nil {
		p.emitted.Add(n)
	}
}

// SetEmitted overwrites the emitted-tuple count (the ShardMerge buffer can
// shrink logically when k is reached; the count tracks min(buffered, k)).
func (p *Progress) SetEmitted(n int64) {
	if p != nil {
		p.emitted.Store(n)
	}
}

// SetKth records the current k-th buffered score.
func (p *Progress) SetKth(v float64) {
	if p != nil {
		storeScore(&p.kth, v)
	}
}

// SetBound records the best score any still-live source could produce.
func (p *Progress) SetBound(v float64) {
	if p != nil {
		storeScore(&p.bound, v)
	}
}

// SetShards initializes the fan-out gauge: total shards, none live or done.
func (p *Progress) SetShards(total int) {
	if p != nil {
		p.shardsTotal.Store(int32(total))
	}
}

// ShardStarted / ShardFinished move one shard through the liveness gauge.
// A pruned shard (never started) counts straight to done.
func (p *Progress) ShardStarted() {
	if p != nil {
		p.shardsLive.Add(1)
	}
}

func (p *Progress) ShardFinished(wasLive bool) {
	if p != nil {
		if wasLive {
			p.shardsLive.Add(-1)
		}
		p.shardsDone.Add(1)
	}
}

// SetMerging marks the gather finished and the final assembly in progress.
func (p *Progress) SetMerging() {
	if p != nil {
		p.merging.Store(true)
	}
}

// Snapshot loads every field. Safe to call from any goroutine, including
// while the query executes. A nil receiver reports the zero snapshot with
// NaN scores.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{Kth: math.NaN(), Bound: math.NaN()}
	}
	return ProgressSnapshot{
		Emitted:     p.emitted.Load(),
		Kth:         loadScore(&p.kth),
		Bound:       loadScore(&p.bound),
		ShardsLive:  p.shardsLive.Load(),
		ShardsDone:  p.shardsDone.Load(),
		ShardsTotal: p.shardsTotal.Load(),
		Merging:     p.merging.Load(),
	}
}

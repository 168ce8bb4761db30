package exec

import (
	"context"

	"rankopt/internal/relation"
)

// This file is the batch-at-a-time execution layer. The Volcano one-tuple-
// per-Next contract costs two or three interface calls, a cancellation poll,
// and a stats touch per tuple; at warm-serving rates that per-pull overhead
// is the throughput ceiling. BatchOperator amortizes all of it across a
// reusable tuple batch: one interface call, one context check, and one stats
// update per DefaultBatchSize tuples. Operators that genuinely need
// incremental pulls for threshold termination (HRJN, NRJN, TopK)
// stay per-tuple; batchSource adapts them transparently, so a pipeline mixes
// vectorized and per-tuple segments without either side knowing.

// DefaultBatchSize is the tuple capacity of the execution batches used by
// the drain loops and by operators' internal sources. Large enough to
// amortize per-batch costs to noise, small enough that a batch of tuple
// headers stays cache-resident.
const DefaultBatchSize = 256

// Batch is a reusable slice of tuples — the unit of batch-at-a-time
// execution. A batch is filled one of two ways: appended into its own
// recycled backing array (one allocation per Open, not per pull), or
// pointed at a borrowed read-only view of an existing tuple slice (SetView —
// how SeqScan hands out a window of the heap with zero copies). The tuples inside
// follow the same ownership rule as Next: once handed to the caller they
// are caller-owned and never recycled — the one exception being a rank
// operator's rows handed to a parent that copies them (see Operator.Next).
type Batch struct {
	// own is the batch's recycled append target; tuples is the live
	// contents — own[:n] after an appended fill, a borrowed slice after
	// SetView.
	own    []relation.Tuple
	tuples []relation.Tuple
	viewed bool
}

// NewBatch allocates a batch with the given capacity (DefaultBatchSize when
// non-positive).
func NewBatch(capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultBatchSize
	}
	own := make([]relation.Tuple, 0, capacity)
	return &Batch{own: own, tuples: own}
}

// Len returns the number of tuples currently in the batch.
func (b *Batch) Len() int { return len(b.tuples) }

// Cap returns the batch's recycled capacity.
func (b *Batch) Cap() int { return cap(b.tuples) }

// Tuples returns the filled prefix. The slice is valid until the next Reset
// or refill; the tuples themselves remain valid (owned as Next's are).
func (b *Batch) Tuples() []relation.Tuple { return b.tuples }

// Reset empties the batch for an appended refill, re-aiming it at its own
// array (dropping any borrowed view) and adopting growth a fan-out fill
// forced. Stale tuple headers beyond the live length are NOT zeroed: the
// recycled array may pin up to Cap tuples from the most recent fills, a
// bounded (one batch) and deliberate trade — the zeroing pass would cost a
// write per slot on every refill of every batch in the pipeline. The pins
// die with the batch at Close.
func (b *Batch) Reset() {
	if b.viewed {
		// Never adopt a borrowed view as the append target: appending into
		// someone else's backing array would corrupt it.
		b.viewed = false
	} else if cap(b.tuples) > cap(b.own) {
		b.own = b.tuples
	}
	b.tuples = b.own[:0]
}

// drop empties the batch and clears its array of the tuples it referenced,
// keeping its capacity — grown by the last fill too, so a session that pulls
// more than the first one did grows the array once, not every run: an
// operator that keeps its batch across Close and Open holds no tuple of a
// finished run. A nil batch is a no-op.
func (b *Batch) drop() {
	if b == nil {
		return
	}
	b.Reset()
	clear(b.own[:cap(b.own)])
}

// SetView points the batch at a borrowed read-only tuple slice with zero
// copying — the vectorized-scan fill. The view is capped at its length, so
// a later append reallocates instead of writing into the borrowed array.
// The underlying tuples must stay immutable for the batch's lifetime
// (relation heaps and materialized buffers qualify).
func (b *Batch) SetView(ts []relation.Tuple) {
	b.tuples = ts[:len(ts):len(ts)]
	b.viewed = true
}

// Append adds one tuple. Appending past Cap grows the backing array, which
// then stays grown — fan-out operators (hash-join probes) may legitimately
// exceed the target size for one round.
func (b *Batch) Append(t relation.Tuple) { b.tuples = append(b.tuples, t) }

// Truncate drops every tuple beyond the first n (stale headers stay in the
// backing array under the same bounded-pinning rule as Reset).
func (b *Batch) Truncate(n int) {
	if n < len(b.tuples) {
		b.tuples = b.tuples[:n]
	}
}

// BatchOperator is the batch-at-a-time operator contract. Implementations
// also satisfy the per-tuple Operator interface; after Open a caller must
// drive the operator through exactly one of the two (mixing Next and
// NextBatch on one opened operator is undefined).
type BatchOperator interface {
	Operator
	// NextBatch resets out and fills it with up to max tuples (at least one
	// when ok). ok=false signals exhaustion with out empty. max bounds the
	// demand — LIMIT-style consumers pass their remaining need so lazy
	// children are not overpulled — but operators whose unit of work fans out
	// (a hash-join probe emitting every match of a probe tuple) may overshoot
	// it for one round. The tuples appended to out are owned exactly
	// as if returned by Next.
	NextBatch(out *Batch, max int) (ok bool, err error)
}

// batchSource adapts an operator's child to the batch contract at Open time:
// children that implement BatchOperator are pulled natively, everything else
// goes through a per-tuple fill loop that polls the retained context on the
// canceller cadence (so a batch consumer over a per-tuple tree keeps PR 4's
// "every unbounded loop polls" invariant). This is the shim that lets
// HRJN/NRJN stay per-tuple while the rest of the pipeline batches.
type batchSource struct {
	bop    BatchOperator
	op     Operator
	cancel canceller
}

// reset installs the child and the query context (called from Open).
func (s *batchSource) reset(ctx context.Context, op Operator) {
	s.op = op
	s.bop, _ = op.(BatchOperator)
	s.cancel.reset(ctx)
}

// next fills out with up to max tuples from the child.
func (s *batchSource) next(out *Batch, max int) (bool, error) {
	if s.bop != nil {
		return s.bop.NextBatch(out, max)
	}
	out.Reset()
	for out.Len() < max {
		if err := s.cancel.poll(); err != nil {
			return false, err
		}
		t, ok, err := s.op.Next()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		out.Append(t)
	}
	return out.Len() > 0, nil
}

// arenaChunkValues caps the tupleArena's allocation unit: one make per
// chunk serves many output tuples, so the per-tuple allocation count of
// vectorized Project / RankAssign / hash-join probe drops from one per tuple
// to one per chunk.
const arenaChunkValues = 4096

// tupleArena hands out caller-owned output tuples carved from shared value
// chunks. It never recycles: every tuple it returns escapes to the caller, so
// the win is purely amortizing the allocation count.
// Carved tuples use full-capacity slices (len == cap), so a caller growing
// one with append reallocates instead of clobbering its neighbor.
//
// Chunks are sized by demand: the first is as large as the batch the operator
// announced with reserve, and each later one doubles the last, up to
// arenaChunkValues. A top-k request whose root carves twenty rows allocates
// (and the runtime clears) those twenty rows, not a full chunk; a long drain
// reaches full chunks within a few batches.
type tupleArena struct {
	chunk []relation.Value
	// demand is the size announced for the batch in hand; last is the size of
	// the most recent chunk.
	demand, last int
}

// reserve announces that the operator is about to carve about rows tuples of
// the given width — one batch's output.
func (a *tupleArena) reserve(rows, width int) { a.demand = rows * width }

// alloc returns a zeroed tuple of width n.
func (a *tupleArena) alloc(n int) relation.Tuple {
	if n == 0 {
		return relation.Tuple{}
	}
	if len(a.chunk) < n {
		a.last = max(n, min(max(a.demand, 2*a.last), arenaChunkValues))
		a.chunk = make([]relation.Value, a.last)
	}
	t := relation.Tuple(a.chunk[:n:n])
	a.chunk = a.chunk[n:]
	return t
}

// concat returns the concatenation of l and r as an arena tuple.
func (a *tupleArena) concat(l, r relation.Tuple) relation.Tuple {
	t := a.alloc(len(l) + len(r))
	copy(t, l)
	copy(t[len(l):], r)
	return t
}

// Package exec implements the engine's physical operators in the Volcano
// (iterator) style: every operator exposes Open/Next/Close and produces
// tuples of a fixed schema. The package contains the classic relational
// operators (scans, filter, project, sort, limit, nested-loops / index /
// sort-merge / hash joins) and the paper's rank-join operators HRJN and
// NRJN, instrumented so experiments can measure the depths (input
// cardinalities) and buffer sizes the optimizer estimates.
package exec

import (
	"context"

	"rankopt/internal/relation"
)

// Operator is the Volcano iterator contract. Implementations must tolerate
// Close after partial consumption (rank plans stop early by design).
type Operator interface {
	// Schema describes the tuples produced by Next.
	Schema() *relation.Schema
	// Open prepares the operator under the query context, recursively opening
	// children with the same ctx: blocking work (materialization, hash build)
	// polls it on the cancelCheckPeriod cadence and it is retained for
	// Next-time polling. When Open returns an error the operator has already
	// closed every child it managed to open; callers must not Close a failed
	// operator.
	Open(ctx context.Context) error
	// Next returns the next tuple; ok=false signals exhaustion. The tuple is
	// the caller's to keep, with one exception: a rank operator (HRJN, NRJN,
	// AnyK, TA) whose parent copies every row it reads and marked it so
	// (readCopied) hands out rows valid only until the operator's own Close.
	Next() (t relation.Tuple, ok bool, err error)
	// Close releases resources (recursively closing children).
	Close() error
}

// closeQuietly closes already-opened children on an Open failure path. The
// Open error takes precedence, so Close errors are discarded.
func closeQuietly(ops ...Operator) {
	for _, op := range ops {
		if op != nil {
			_ = op.Close()
		}
	}
}

// closeAll closes every operator of a multi-input parent, returning the first
// error.
func closeAll(ops []Operator) error {
	var first error
	for _, op := range ops {
		if err := op.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// concatSchemas returns the schema of a multi-input join's result: the
// inputs' schemas concatenated in order.
func concatSchemas(inputs []Operator) *relation.Schema {
	sch := inputs[0].Schema()
	for _, in := range inputs[1:] {
		sch = sch.Concat(in.Schema())
	}
	return sch
}

// Arguments of drain, named for its call sites.
const (
	pullBatch = false
	pullTuple = true
	noLimit   = -1
	keepRows  = true
	countRows = false
)

// drain is the one open / poll / pull / close-on-error loop behind every
// exported Collect* helper. It pulls batch-at-a-time (vectorized
// roots natively, per-tuple roots through the batchSource shim, one context
// check per batch) into b — a fresh DefaultBatchSize batch when nil — or,
// with perTuple, one tuple per Next polling ctx on the canceller cadence.
// limit < 0 drains to exhaustion; keep retains the tuples, otherwise they are
// only counted. Every tuple pulled is also counted into prog (nil counts
// nothing). A caller's batch comes back empty and cleared of the tuples
// it carried. A failed Open needs no Close: per the
// Operator contract the operator has already released whatever it opened. On
// any later failure — including cancellation — the tree is closed before
// returning, so a cancelled query never leaks goroutines, pooled buffers, or
// open state; n then counts the tuples pulled before the failure.
func drain(ctx context.Context, op Operator, b *Batch, prog *Progress, perTuple bool, limit int, keep bool) (out []relation.Tuple, n int, err error) {
	if err := CtxErr(ctx); err != nil {
		return nil, 0, err
	}
	if err := op.Open(ctx); err != nil {
		return nil, 0, err
	}
	var (
		src  batchSource
		poll canceller
		one  [1]relation.Tuple
	)
	if perTuple {
		poll.reset(ctx)
	} else {
		src.reset(ctx, op)
		if b == nil {
			b = NewBatch(DefaultBatchSize)
		} else {
			defer b.drop()
		}
	}
	for limit < 0 || n < limit {
		var got []relation.Tuple
		var ok bool
		if perTuple {
			if err = poll.poll(); err == nil {
				one[0], ok, err = op.Next()
				got = one[:]
			}
		} else if err = CtxErr(ctx); err == nil {
			ok, err = src.next(b, DefaultBatchSize)
			got = b.Tuples()
		}
		if err != nil {
			_ = op.Close()
			return nil, n, err
		}
		if !ok {
			break
		}
		n += len(got)
		prog.AddEmitted(int64(len(got)))
		if keep {
			out = append(out, got...)
		}
	}
	if err := op.Close(); err != nil {
		return nil, n, err
	}
	return out, n, nil
}

// Collect opens op, drains it, closes it, and returns all produced tuples —
// CollectCtx for callers without a query context.
func Collect(op Operator) ([]relation.Tuple, error) {
	return CollectCtx(context.Background(), op)
}

// CollectCtx collects every tuple of op under a query context, pulling
// batch-at-a-time.
func CollectCtx(ctx context.Context, op Operator) ([]relation.Tuple, error) {
	return CollectBatch(ctx, op, nil, nil)
}

// CollectBatch is CollectCtx pulling into the caller's batch b (a fresh one
// when nil), which a compiled tree keeps across sessions, and counting the
// tuples it pulls into the session's progress block prog (nil counts
// nothing). b comes back empty, cleared of the tuples it carried.
func CollectBatch(ctx context.Context, op Operator, b *Batch, prog *Progress) ([]relation.Tuple, error) {
	out, _, err := drain(ctx, op, b, prog, pullBatch, noLimit, keepRows)
	return out, err
}

// CollectPerTupleCtx is the one-tuple-per-Next reference drain: CollectCtx
// exactly as it behaved before batch execution landed. The differential
// oracle cross-checks every plan through both drains — any batch-vs-tuple
// divergence fails the comparison.
func CollectPerTupleCtx(ctx context.Context, op Operator) ([]relation.Tuple, error) {
	out, _, err := drain(ctx, op, nil, nil, pullTuple, noLimit, keepRows)
	return out, err
}

// CollectK opens op, pulls at most k tuples, closes it — CollectKCtx for
// callers without a query context.
func CollectK(op Operator, k int) ([]relation.Tuple, error) {
	return CollectKCtx(context.Background(), op, k)
}

// CollectKCtx collects like CollectK under a query context. It pulls one
// tuple per Next on purpose — pulling batch-granular here would overpull lazy
// rank-join roots past k, destroying exactly the early termination top-k
// callers use CollectK for.
func CollectKCtx(ctx context.Context, op Operator, k int) ([]relation.Tuple, error) {
	out, _, err := drain(ctx, op, nil, nil, pullTuple, max(k, 0), keepRows)
	return out, err
}

// sliceOp replays a fixed tuple slice; the building block for materialized
// inputs and for tests.
type sliceOp struct {
	schema *relation.Schema
	tuples []relation.Tuple
	pos    int
}

// FromTuples returns an operator producing the given tuples.
func FromTuples(schema *relation.Schema, tuples []relation.Tuple) Operator {
	return &sliceOp{schema: schema, tuples: tuples}
}

func (s *sliceOp) Schema() *relation.Schema   { return s.schema }
func (s *sliceOp) Open(context.Context) error { s.pos = 0; return nil }
func (s *sliceOp) Close() error               { return nil }

func (s *sliceOp) Next() (relation.Tuple, bool, error) {
	if s.pos >= len(s.tuples) {
		return nil, false, nil
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, true, nil
}

// NextBatch implements BatchOperator: the batch borrows a window of the
// materialized slice (zero copies, like SeqScan over a heap).
func (s *sliceOp) NextBatch(out *Batch, max int) (bool, error) {
	if s.pos >= len(s.tuples) {
		out.Reset()
		return false, nil
	}
	end := s.pos + max
	if end > len(s.tuples) {
		end = len(s.tuples)
	}
	out.SetView(s.tuples[s.pos:end])
	s.pos = end
	return true, nil
}

// lendRest implements tupleLender.
func (s *sliceOp) lendRest() []relation.Tuple {
	rest := s.tuples[s.pos:]
	s.pos = len(s.tuples)
	return rest[:len(rest):len(rest)]
}

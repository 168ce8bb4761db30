package exec

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// This file is the robustness layer of the executor: typed errors for
// cancellation and resource exhaustion, per-query ResourceLimits, and the
// shared atomic Budget that buffering operators (rank-join and TA queues,
// rank-join hash tables, the TopK heap, Sort buffers, HashJoin build tables,
// nested-loops inners, HashAggregate groups) charge for every tuple they
// hold. A runaway rank-join — deep cL/cR reads
// when the Section 4 depth estimates miss — now fails with a typed error
// instead of growing its queues until the process OOMs.

// Typed failure causes. ErrDeadlineExceeded and ErrQueryCancelled wrap their
// context counterparts so errors.Is works against either name;
// ErrDepthExceeded wraps ErrBudgetExceeded so one errors.Is test classifies
// every resource-limit failure.
var (
	// ErrDeadlineExceeded reports that the query's deadline passed while the
	// operator tree was still executing.
	ErrDeadlineExceeded = fmt.Errorf("exec: query deadline exceeded: %w", context.DeadlineExceeded)
	// ErrQueryCancelled reports that the query's context was cancelled.
	ErrQueryCancelled = fmt.Errorf("exec: query cancelled: %w", context.Canceled)
	// ErrBudgetExceeded reports that the query's buffered-tuple budget ran
	// out.
	ErrBudgetExceeded = errors.New("exec: buffered-tuple budget exceeded")
	// ErrDepthExceeded reports that a rank-join read deeper into one input
	// than the query's per-input depth limit allows.
	ErrDepthExceeded = fmt.Errorf("exec: per-input depth limit exceeded: %w", ErrBudgetExceeded)
)

// ResourceLimits bounds one query's resource use. The zero value disables
// every limit.
type ResourceLimits struct {
	// Deadline, when nonzero, is the wall-clock instant after which the query
	// fails with ErrDeadlineExceeded. Enforcement happens through the context
	// the engine derives before admission, so the deadline covers queue wait.
	Deadline time.Time
	// MaxBufferedTuples caps the tuples buffered across the whole operator
	// tree at any instant: rank-join and TA ranking queues, rank-join hash
	// tables, TopK heaps, Sort buffers, HashJoin build tables, nested-loops
	// inners and HashAggregate groups all charge one shared budget. Zero
	// means unlimited.
	MaxBufferedTuples int64
	// MaxDepthPerInput caps how many tuples a rank-join may consume from any
	// single input — the direct guard against the runaway-depth failure mode.
	// Zero means unlimited.
	MaxDepthPerInput int64
}

// Enabled reports whether any limit is set.
func (l ResourceLimits) Enabled() bool {
	return !l.Deadline.IsZero() || l.MaxBufferedTuples > 0 || l.MaxDepthPerInput > 0
}

// Budget is the shared per-query accounting the buffering operators charge.
// One Budget serves the whole operator tree, so the cap is global, not
// per-operator. All methods are nil-safe: a nil *Budget means "no limits"
// and costs one pointer test on the hot path.
//
// A compiled tree that serves many sessions owns one Budget, wired into its
// operators once, and re-arms it before each session: Arm with the
// session's limits, or Share to charge a session budget the tree does not
// own (a shard pipeline of the sharded tier). Operators resolve the budget
// they charge at Open (see bound), so an unarmed or unlimited one costs them
// nothing.
type Budget struct {
	maxBuffered int64
	maxDepth    int64
	buffered    atomic.Int64
	// shared, when set by Share, is the budget this one stands for.
	shared *Budget
}

// NewBudget builds the budget enforcing l's tuple and depth caps, or nil
// when l sets neither — keeping the unlimited execution path completely
// untouched.
func NewBudget(l ResourceLimits) *Budget {
	if l.MaxBufferedTuples <= 0 && l.MaxDepthPerInput <= 0 {
		return nil
	}
	return &Budget{maxBuffered: l.MaxBufferedTuples, maxDepth: l.MaxDepthPerInput}
}

// Arm readies a tree-owned budget for its next session under limits l. The
// tree must not be open: Arm writes plain fields the operators read at Open.
func (b *Budget) Arm(l ResourceLimits) {
	b.maxBuffered, b.maxDepth, b.shared = l.MaxBufferedTuples, l.MaxDepthPerInput, nil
}

// Share readies a tree-owned budget to forward its next session's charges
// to s (nil = no limits), like Arm.
func (b *Budget) Share(s *Budget) {
	b.maxBuffered, b.maxDepth, b.shared = 0, 0, s
}

// bound resolves the budget an operator opened now charges: the shared
// budget, b itself when it sets a limit, or nil when no limit applies.
func (b *Budget) bound() *Budget {
	switch {
	case b == nil:
		return nil
	case b.shared != nil:
		return b.shared
	case b.maxBuffered <= 0 && b.maxDepth <= 0:
		return nil
	}
	return b
}

// Buffered returns the tuples currently charged against the budget.
func (b *Budget) Buffered() int64 {
	if b == nil {
		return 0
	}
	return b.buffered.Load()
}

// charge accounts n newly buffered tuples, failing once the cap is crossed.
// The charge stands even on failure; the caller's accountant releases it at
// Close, so the counter stays consistent while the tree tears down.
func (b *Budget) charge(n int64) error {
	if b == nil {
		return nil
	}
	v := b.buffered.Add(n)
	if b.maxBuffered > 0 && v > b.maxBuffered {
		return fmt.Errorf("exec: %d buffered tuples exceed limit %d: %w", v, b.maxBuffered, ErrBudgetExceeded)
	}
	return nil
}

// release returns n tuples to the budget.
func (b *Budget) release(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.buffered.Add(-n)
}

// depthOK verifies a rank-join's per-input depth against the cap.
func (b *Budget) depthOK(d int) error {
	if b == nil || b.maxDepth <= 0 || int64(d) <= b.maxDepth {
		return nil
	}
	return fmt.Errorf("exec: input depth %d exceeds limit %d: %w", d, b.maxDepth, ErrDepthExceeded)
}

// accountant tracks one operator's live charges against the shared budget so
// Close (or a re-Open) can return exactly what the operator still holds.
// Charges are recorded before the budget verdict, so a failed charge is
// still released during teardown.
type accountant struct {
	budget  *Budget
	charged int64
}

// charge accounts n tuples the operator now buffers.
func (a *accountant) charge(n int) error {
	if a.budget == nil {
		return nil
	}
	a.charged += int64(n)
	return a.budget.charge(int64(n))
}

// release returns n tuples the operator no longer buffers.
func (a *accountant) release(n int) {
	if a.budget == nil || n <= 0 {
		return
	}
	if int64(n) > a.charged {
		n = int(a.charged)
	}
	a.charged -= int64(n)
	a.budget.release(int64(n))
}

// releaseAll returns every outstanding charge (the Close path).
func (a *accountant) releaseAll() {
	if a.budget != nil && a.charged > 0 {
		a.budget.release(a.charged)
		a.charged = 0
	}
}

// cancelCheckPeriod is the Next-cadence of context polling: one ctx.Err()
// load per cancelCheckPeriod iterations of an operator's internal pull or
// drain loop. Must be a power of two so the test is a mask. At rank-join
// pull rates (~10⁷/s) the worst-case detection latency stays far under the
// acceptance bound of 50 ms.
const cancelCheckPeriod = 64

// CtxErr maps a done context to the executor's typed errors
// (ErrDeadlineExceeded / ErrQueryCancelled); nil context or live context
// return nil.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrQueryCancelled
}

// canceller is the cadence state an operator embeds: poll() returns a typed
// error on the 1-in-cancelCheckPeriod iteration where the stored context
// reports done. reset stores the context at Open time.
type canceller struct {
	ctx  context.Context
	tick uint32
}

// reset installs the query context (nil behaves like Background).
func (c *canceller) reset(ctx context.Context) {
	c.ctx = ctx
	c.tick = 0
}

// poll checks the context on the sampling cadence. The common case is one
// increment, one mask test, and no interface call.
func (c *canceller) poll() error {
	c.tick++
	if c.tick&(cancelCheckPeriod-1) != 0 {
		return nil
	}
	return CtxErr(c.ctx)
}

// check tests the context unconditionally — the per-batch cadence, where one
// check already covers up to DefaultBatchSize tuples of work.
func (c *canceller) check() error { return CtxErr(c.ctx) }

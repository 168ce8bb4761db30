package ranking

import (
	"fmt"
	"math"
)

// OrderViolationError reports a source that broke the descending-order
// contract Bounds depends on: it emitted a score above its own bound, or a
// NaN, which cannot be ordered at all. Silently keeping the stale-tight bound
// would let threshold-style pruning (the sharded merge) cut a source
// that could still beat the k-th score — wrong answers instead of a loud
// failure.
type OrderViolationError struct {
	Source int
	Score  float64
	Bound  float64
}

func (e *OrderViolationError) Error() string {
	if math.IsNaN(e.Score) {
		return fmt.Sprintf("ranking: source %d emitted NaN score (bound %v) — scores must be orderable and descending", e.Source, e.Bound)
	}
	return fmt.Sprintf("ranking: source %d emitted score %v above its bound %v — sources must emit in descending order", e.Source, e.Score, e.Bound)
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

// Bounds tracks per-source upper bounds for threshold-style early
// termination; it is the sharded coordinator merge's threshold state. Every
// source emits scores in descending order, so the last observed score bounds
// everything the source can still produce, an optional a-priori ceiling
// (e.g. derived from per-shard statistics) bounds a source before it has
// emitted anything, and an exhausted source can produce nothing at all.
//
// Bounds is not safe for concurrent use; callers serialize access (the
// coordinator observes from a single merge goroutine).
type Bounds struct {
	upper     []float64
	exhausted []bool
}

// NewBounds tracks n sources, each initially unbounded (+Inf).
func NewBounds(n int) *Bounds {
	b := &Bounds{upper: make([]float64, n), exhausted: make([]bool, n)}
	for i := range b.upper {
		b.upper[i] = math.Inf(1)
	}
	return b
}

// SetCeiling tightens source i's bound with an a-priori ceiling, typically
// computed from statistics before the source has produced anything. Looser
// ceilings than the current bound are ignored.
func (b *Bounds) SetCeiling(i int, v float64) {
	if v < b.upper[i] {
		b.upper[i] = v
	}
}

// Observe records a score emitted by source i. Because sources emit in
// descending order, the observation bounds every future emission. A score
// above the current bound (beyond rounding slack) or a NaN breaks that
// contract and returns an *OrderViolationError; the bound is left unchanged.
func (b *Bounds) Observe(i int, score float64) error {
	u := b.upper[i]
	if math.IsNaN(score) || score > u+orderSlack(u) {
		return &OrderViolationError{Source: i, Score: score, Bound: u}
	}
	if score < u {
		b.upper[i] = score
	}
	return nil
}

// Exhaust marks source i as having no further output.
func (b *Bounds) Exhaust(i int) { b.exhausted[i] = true }

// Upper returns the best score source i can still produce: -Inf once
// exhausted, +Inf before any observation or ceiling, otherwise the tightest
// known bound.
func (b *Bounds) Upper(i int) float64 {
	if b.exhausted[i] {
		return math.Inf(-1)
	}
	return b.upper[i]
}

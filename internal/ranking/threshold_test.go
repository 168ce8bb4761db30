package ranking

import (
	"errors"
	"math"
	"testing"
)

func TestBoundsLifecycle(t *testing.T) {
	b := NewBounds(3)
	if !math.IsInf(b.Upper(0), 1) {
		t.Fatal("unobserved bounds must be +Inf")
	}
	b.SetCeiling(0, 10)
	b.SetCeiling(0, 20) // ceilings only tighten
	if b.Upper(0) != 10 {
		t.Fatalf("Upper(0) = %v after ceilings 10 then 20", b.Upper(0))
	}
	if err := b.Observe(0, 7); err != nil {
		t.Fatalf("descending observation rejected: %v", err)
	}
	if err := b.Observe(0, 9); err == nil { // rising score = order violation
		t.Fatal("rising score must be rejected")
	}
	if b.Upper(0) != 7 { // and the stale bound must not loosen either
		t.Fatalf("Upper(0) = %v after observing 7 then rejected 9", b.Upper(0))
	}
	if err := b.Observe(1, 4); err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(b.Upper(2), 1) { // list 2 still unobserved
		t.Fatalf("Upper(2) = %v", b.Upper(2))
	}
	if err := b.Observe(2, 5); err != nil {
		t.Fatal(err)
	}
	if b.Upper(1) != 4 || b.Upper(2) != 5 {
		t.Fatalf("Upper(1), Upper(2) = %v, %v, want 4, 5", b.Upper(1), b.Upper(2))
	}
	b.Exhaust(0)
	if !math.IsInf(b.Upper(0), -1) {
		t.Fatal("exhausted list must report -Inf upper bound")
	}
	if b.Upper(1) != 4 || b.Upper(2) != 5 {
		t.Fatal("lists 1 and 2 are still live")
	}
	b.Exhaust(1)
	b.Exhaust(2)
	for i := 0; i < 3; i++ {
		if !math.IsInf(b.Upper(i), -1) {
			t.Fatalf("Upper(%d) after exhaustion = %v", i, b.Upper(i))
		}
	}
}

// Out-of-order and NaN observations must fail loudly with the typed error —
// silently keeping a stale-tight bound would let threshold pruning cut a
// source that can still beat the k-th score.
func TestBoundsOrderViolation(t *testing.T) {
	b := NewBounds(2)
	if err := b.Observe(0, 5); err != nil {
		t.Fatal(err)
	}
	err := b.Observe(0, 5.1)
	var ov *OrderViolationError
	if !errors.As(err, &ov) {
		t.Fatalf("rising score: got %v, want *OrderViolationError", err)
	}
	if ov.Source != 0 || ov.Score != 5.1 || ov.Bound != 5 {
		t.Fatalf("violation detail = %+v", *ov)
	}
	// Equal and within-slack repeats are rounding noise, not violations.
	if err := b.Observe(0, 5); err != nil {
		t.Fatalf("equal score rejected: %v", err)
	}
	if err := b.Observe(0, 5+1e-12); err != nil {
		t.Fatalf("within-slack score rejected: %v", err)
	}
	// NaN can never be ordered; it must be rejected even on a fresh source.
	if err := b.Observe(1, math.NaN()); !errors.As(err, &ov) {
		t.Fatalf("NaN: got %v, want *OrderViolationError", err)
	}
	// A first observation above an a-priori ceiling breaks the same contract.
	b2 := NewBounds(1)
	b2.SetCeiling(0, 10)
	if err := b2.Observe(0, 11); !errors.As(err, &ov) {
		t.Fatalf("above-ceiling score: got %v, want *OrderViolationError", err)
	}
	// -Inf (NULL scores sorting last) is a legal descending observation.
	if err := b2.Observe(0, math.Inf(-1)); err != nil {
		t.Fatalf("-Inf observation rejected: %v", err)
	}
}

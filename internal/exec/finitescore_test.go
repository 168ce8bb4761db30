package exec

import (
	"math"
	"strings"
	"testing"

	"rankopt/internal/expr"
)

// sizeHint must treat NaN as "unknown" rather than passing it through both
// range guards into a platform-undefined int(NaN) conversion.
func TestSizeHintNonFinite(t *testing.T) {
	cases := []struct {
		est  float64
		want int
	}{
		{math.NaN(), 0},
		{math.Inf(-1), 0},
		{math.Inf(1), 1 << 16},
		{-5, 0},
		{0, 0},
		{100, 100},
		{1 << 20, 1 << 16},
	}
	for _, c := range cases {
		if got := sizeHint(c.est); got != c.want {
			t.Errorf("sizeHint(%v) = %d, want %d", c.est, got, c.want)
		}
	}
}

// inf is shorthand for the tests below.
var inf = math.Inf(1)

// Opposite infinities across the two inputs used to make the HRJN threshold
// NaN (topL + lastR = +Inf + -Inf), which compares false against every
// queued score and silently disables early termination: the first result
// only surfaced after both inputs drained completely. With the boundary
// clamp the threshold stays finite and the top result is released after one
// tuple per side.
func TestHRJNOppositeInfinitiesStillTerminateEarly(t *testing.T) {
	lsch, ltups := scoredKeyed("L", []float64{inf, 10, 9, 8, 7, 6}, []int64{1, 1, 1, 1, 1, 1})
	rsch, rtups := scoredKeyed("R", []float64{-inf, -inf, -inf, -inf, -inf, -inf}, []int64{1, 1, 1, 1, 1, 1})
	j := NewHRJN(FromTuples(lsch, ltups), FromTuples(rsch, rtups),
		expr.Col("L", "score"), expr.Col("R", "score"),
		expr.Col("L", "key"), expr.Col("R", "key"), nil)
	out, err := CollectK(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("emitted %d tuples, want 1", len(out))
	}
	st := j.Stats()
	if st.LeftDepth != 1 || st.RightDepth != 1 {
		t.Errorf("depths = (%d,%d), want (1,1): NaN threshold disabled early termination",
			st.LeftDepth, st.RightDepth)
	}
}

// Same scenario through NRJN: a +Inf outer top against a -Inf-only inner
// made threshold = lastL + innerMax = NaN, deferring every emission until
// the outer drained.
func TestNRJNOppositeInfinitiesStillTerminateEarly(t *testing.T) {
	lsch, ltups := scoredKeyed("L", []float64{inf, 10, 9, 8}, []int64{1, 1, 1, 1})
	rsch, rtups := scoredKeyed("R", []float64{-inf, -inf}, []int64{1, 1})
	j := NewNRJN(FromTuples(lsch, ltups), FromTuples(rsch, rtups),
		expr.Col("L", "score"), expr.Col("R", "score"),
		expr.Bin(expr.OpEq, expr.Col("L", "key"), expr.Col("R", "key")))
	out, err := CollectK(j, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("emitted %d tuples, want 1", len(out))
	}
	if st := j.Stats(); st.LeftDepth != 1 {
		t.Errorf("outer depth = %d, want 1: NaN threshold disabled early termination", st.LeftDepth)
	}
}

// A NaN score has no position in a ranking; the rank joins must fail loudly
// instead of feeding it into the threshold and heap arithmetic.
func TestRankJoinsRejectNaNScores(t *testing.T) {
	nan := math.NaN()
	lsch, ltups := scoredKeyed("L", []float64{nan, 1}, []int64{1, 1})
	rsch, rtups := scoredKeyed("R", []float64{2, 1}, []int64{1, 1})

	h := NewHRJN(FromTuples(lsch, ltups), FromTuples(rsch, rtups),
		expr.Col("L", "score"), expr.Col("R", "score"),
		expr.Col("L", "key"), expr.Col("R", "key"), nil)
	if _, err := Collect(h); err == nil || !strings.Contains(err.Error(), "NaN score") {
		t.Errorf("HRJN error = %v, want NaN score rejection", err)
	}

	n := NewNRJN(FromTuples(lsch, ltups), FromTuples(rsch, rtups),
		expr.Col("L", "score"), expr.Col("R", "score"),
		expr.Bin(expr.OpEq, expr.Col("L", "key"), expr.Col("R", "key")))
	if _, err := Collect(n); err == nil || !strings.Contains(err.Error(), "NaN score") {
		t.Errorf("NRJN error = %v, want NaN score rejection", err)
	}
}

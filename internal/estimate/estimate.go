// Package estimate implements the paper's Section 4 probabilistic model for
// the input cardinality (depth) of rank-join operators: how many tuples a
// rank-join must read from each ranked input to produce the top-k join
// results. It provides
//
//   - the any-k depths cL, cR of Theorem 1 (s·cL·cR ≥ k);
//   - the top-k depths dL, dR of Theorem 2, minimized per Section 4.3;
//   - the base two-relation case under uniform scores with average
//     decrement slabs x and y;
//   - the hierarchy case where an input is itself the output of rank-joining
//     j base inputs (its scores follow the sum-of-uniforms distribution u_j):
//     Equation 1 score quantiles, the worst-case Equations 2–5, and the
//     average-case closed forms (the paper's bounds);
//   - the depth an alternating binary HRJN reaches over such inputs, the
//     estimate the optimizer costs hierarchies with;
//   - Algorithm Propagate (Figure 8), which pushes the root k down a
//     rank-join plan tree, annotating every operator with its depths; and
//   - the buffer upper bound dL·dR·s of Section 5.3.
//
// All formulas are evaluated in log space (math.Lgamma for factorials) so
// deep hierarchies do not overflow.
package estimate

import (
	"fmt"
	"math"
)

// Depths holds the estimated input cardinalities of one rank-join operator.
type Depths struct {
	// CL and CR are the any-k depths (Theorem 1): reading this much of each
	// input yields k expected valid join results, not necessarily top-ranked.
	CL, CR float64
	// DL and DR are the top-k depths (Theorem 2): reading this much
	// guarantees (in expectation / worst case per mode) the top-k results.
	DL, DR float64
}

// lnFact returns ln(j!).
func lnFact(j int) float64 {
	v, _ := math.Lgamma(float64(j) + 1)
	return v
}

// TwoUniform estimates depths for a rank-join of two base ranked relations
// whose scores are uniform with average decrement slabs x (left) and y
// (right): cL = sqrt(yk/(xs)), cR = sqrt(xk/(ys)), dL = cL + (y/x)cR,
// dR = cR + (x/y)cL (Section 4.3). In the symmetric case x = y this reduces
// to cL = cR = sqrt(k/s), dL = dR = 2·sqrt(k/s).
func TwoUniform(k, s, x, y float64) (Depths, error) {
	if err := checkKS(k, s); err != nil {
		return Depths{}, err
	}
	if x <= 0 || y <= 0 {
		return Depths{}, fmt.Errorf("estimate: non-positive slabs x=%v y=%v", x, y)
	}
	cL := math.Sqrt(y * k / (x * s))
	cR := math.Sqrt(x * k / (y * s))
	return Depths{
		CL: cL,
		CR: cR,
		DL: cL + (y/x)*cR,
		DR: cR + (x/y)*cL,
	}, nil
}

// TwoUniformAvg is the average-case counterpart of TwoUniform: in the
// symmetric case the average-case analysis gives dL = sqrt(2k/s) (the l=r=1
// instance of the average-case hierarchy formulas) instead of the worst-case
// 2·sqrt(k/s); asymmetric slabs scale the same way as in TwoUniform.
func TwoUniformAvg(k, s, x, y float64) (Depths, error) {
	d, err := TwoUniform(k, s, x, y)
	if err != nil {
		return Depths{}, err
	}
	// Worst-case dL = 2·sqrt(yk/(xs)); average replaces the factor 2 with
	// sqrt(2), matching HierarchyAvg at l=r=1.
	d.DL = math.Sqrt(2 * y * k / (x * s))
	d.DR = math.Sqrt(2 * x * k / (y * s))
	return d, nil
}

// OneSidedDepth estimates the outer depth of a nested-loops rank-join
// (NRJN) whose inner input is fully materialized and unsorted. Its threshold
// after reading dL outer tuples is SL(dL) + max(SR): every unseen result
// pairs a deeper outer tuple with some inner tuple. The top-k results
// surface once SL(1) − x·dL + SR(1) drops to the expected k-th combined
// score SL(1) + SR(1) − Δk with Δk = sqrt(2·k·x·y/s) (the u₂ quantile with
// decrement slabs x and y), giving
//
//	dL = Δk / x = sqrt(2·k·y / (s·x)).
//
// In the symmetric case this equals the average-case two-sided depth
// sqrt(2k/s): the one-sided operator pays full inner consumption but digs no
// deeper on the outer than the symmetric operator does per side.
func OneSidedDepth(k, s, x, y float64) (float64, error) {
	if err := checkKS(k, s); err != nil {
		return 0, err
	}
	if x <= 0 || y <= 0 {
		return 0, fmt.Errorf("estimate: non-positive slabs x=%v y=%v", x, y)
	}
	return math.Sqrt(2 * k * y / (s * x)), nil
}

// HierarchyWorst estimates worst-case depths (Equations 2–5) for a rank-join
// whose left input aggregates l base ranked relations and right input
// aggregates r, each base relation holding n tuples with uniform scores.
// The worst-case bounds are strict upper bounds on the required depths.
func HierarchyWorst(k, s float64, l, r int, n float64) (Depths, error) {
	if err := checkHier(k, s, l, r, n); err != nil {
		return Depths{}, err
	}
	lf, rf := float64(l), float64(r)
	// Equation 2: cL^{r+l} = (r!)^l k^l n^{r-l} l^{rl} / (s^l (l!)^r r^{rl}).
	lnCL := (lf*lnFact(r) + lf*math.Log(k) + (rf-lf)*math.Log(n) + rf*lf*math.Log(lf) -
		lf*math.Log(s) - rf*lnFact(l) - rf*lf*math.Log(rf)) / (lf + rf)
	cL := math.Exp(lnCL)
	// cL·cR = k/s exactly at the minimizer (Equation 3 is its mirror image).
	cR := k / (s * cL)
	return Depths{
		CL: cL,
		CR: cR,
		DL: cL * math.Pow(1+rf/lf, lf), // Equation 4
		DR: cR * math.Pow(1+lf/rf, rf), // Equation 5
	}, nil
}

// HierarchyAvg estimates average-case depths:
//
//	dL^{l+r} = ((l+r)!)^l k^l n^{r-l} / ((l!)^{l+r} s^l)
//	dR^{l+r} = ((l+r)!)^r k^r n^{l-r} / ((r!)^{l+r} s^r)
//
// CL and CR are filled with the worst-case any-k minimizers (the average
// analysis does not define its own c values).
func HierarchyAvg(k, s float64, l, r int, n float64) (Depths, error) {
	if err := checkHier(k, s, l, r, n); err != nil {
		return Depths{}, err
	}
	lf, rf := float64(l), float64(r)
	lnDL := (lf*lnFact(l+r) + lf*math.Log(k) + (rf-lf)*math.Log(n) -
		(lf+rf)*lnFact(l) - lf*math.Log(s)) / (lf + rf)
	lnDR := (rf*lnFact(l+r) + rf*math.Log(k) + (lf-rf)*math.Log(n) -
		(lf+rf)*lnFact(r) - rf*math.Log(s)) / (lf + rf)
	worst, err := HierarchyWorst(k, s, l, r, n)
	if err != nil {
		return Depths{}, err
	}
	return Depths{
		CL: worst.CL,
		CR: worst.CR,
		DL: math.Exp(lnDL),
		DR: math.Exp(lnDR),
	}, nil
}

// Alternating estimates the depths a binary HRJN reaches over an l-leaf
// input of mL tuples and an r-leaf input of mR tuples. HRJN alternates
// between its inputs, so it reads both to one depth: dL = dR = d. With
// scores in units of one leaf's range, Equation 1 puts a j-leaf input of m
// tuples δ_j(d) = (j!·d/m)^{1/j} below its top score after d tuples. At
// depth c = sqrt(k/s) on both sides the s·c² = k join results seen so far
// lie at most Δ = δ_l(c) + δ_r(c) below the top; the threshold
// top − min(δ_l(d), δ_r(d)) falls past them once both sides have dropped
// Δ, at
//
//	d = max(mL·Δ^l / l!, mR·Δ^r / r!).
//
// At l = r = 1 and mL = mR this is TwoUniform's symmetric 2·sqrt(k/s).
// CL and CR hold c.
func Alternating(k, s float64, l, r int, mL, mR float64) (Depths, error) {
	if err := checkKS(k, s); err != nil {
		return Depths{}, err
	}
	if l < 1 || r < 1 {
		return Depths{}, fmt.Errorf("estimate: sides must aggregate >=1 inputs (l=%d r=%d)", l, r)
	}
	if mL <= 0 || mR <= 0 {
		return Depths{}, fmt.Errorf("estimate: non-positive input cardinality %v/%v", mL, mR)
	}
	c := math.Sqrt(k / s)
	// ln δ_j(d) and its inverse, ln d = ln m + j·ln Δ − ln j!.
	lnDrop := func(j int, m float64) float64 { return (lnFact(j) + math.Log(c) - math.Log(m)) / float64(j) }
	lnDelta := math.Log(math.Exp(lnDrop(l, mL)) + math.Exp(lnDrop(r, mR)))
	d := math.Exp(math.Max(
		math.Log(mL)+float64(l)*lnDelta-lnFact(l),
		math.Log(mR)+float64(r)*lnDelta-lnFact(r)))
	return Depths{CL: c, CR: c, DL: d, DR: d}, nil
}

// ScoreQuantile is Equation 1: the expected score of the i-th largest of m
// draws from u_j, the sum of j independent uniforms on [0, n]:
//
//	score_i = j·n − (j!·i·n^j / m)^{1/j}
//
// valid in the distribution's upper tail (i ≤ m/2 roughly).
func ScoreQuantile(j int, n, i, m float64) (float64, error) {
	if j < 1 || n <= 0 || i <= 0 || m <= 0 {
		return 0, fmt.Errorf("estimate: ScoreQuantile needs positive arguments (j=%d n=%v i=%v m=%v)", j, n, i, m)
	}
	jf := float64(j)
	ln := lnFact(j) + math.Log(i) + jf*math.Log(n) - math.Log(m)
	return jf*n - math.Exp(ln/jf), nil
}

// BufferUpperBound is the Section 5.3 bound on the rank-join ranking-queue
// size: all dL·dR·s expected join results may be buffered before any can be
// reported.
func BufferUpperBound(dL, dR, s float64) float64 { return dL * dR * s }

func checkKS(k, s float64) error {
	if k <= 0 {
		return fmt.Errorf("estimate: non-positive k %v", k)
	}
	if s <= 0 || s > 1 {
		return fmt.Errorf("estimate: selectivity %v outside (0,1]", s)
	}
	return nil
}

func checkHier(k, s float64, l, r int, n float64) error {
	if err := checkKS(k, s); err != nil {
		return err
	}
	if l < 1 || r < 1 {
		return fmt.Errorf("estimate: sides must aggregate >=1 inputs (l=%d r=%d)", l, r)
	}
	if n <= 0 {
		return fmt.Errorf("estimate: non-positive base cardinality %v", n)
	}
	return nil
}

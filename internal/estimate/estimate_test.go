package estimate

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*math.Max(1, math.Abs(b)) }

func TestTwoUniformSymmetric(t *testing.T) {
	// x = y: cL = cR = sqrt(k/s), dL = dR = 2 sqrt(k/s).
	d, err := TwoUniform(100, 0.01, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(100 / 0.01)
	if !almostEq(d.CL, want, 1e-12) || !almostEq(d.CR, want, 1e-12) {
		t.Errorf("c = %v/%v, want %v", d.CL, d.CR, want)
	}
	if !almostEq(d.DL, 2*want, 1e-12) || !almostEq(d.DR, 2*want, 1e-12) {
		t.Errorf("d = %v/%v, want %v", d.DL, d.DR, 2*want)
	}
}

func TestTwoUniformAsymmetric(t *testing.T) {
	// Steeper left slab (x >> y): dig less into L, more into R.
	d, err := TwoUniform(64, 0.1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// cL = sqrt(yk/xs) = sqrt(64/(4*0.1)) = sqrt(160); cR = sqrt(4*64/0.1).
	if !almostEq(d.CL, math.Sqrt(160), 1e-12) {
		t.Errorf("cL = %v", d.CL)
	}
	if !almostEq(d.CR, math.Sqrt(2560), 1e-12) {
		t.Errorf("cR = %v", d.CR)
	}
	if d.CL >= d.CR {
		t.Error("steeper left slab should need smaller left depth")
	}
	// Invariant: s·cL·cR = k at the minimizer.
	if !almostEq(0.1*d.CL*d.CR, 64, 1e-9) {
		t.Errorf("s·cL·cR = %v, want 64", 0.1*d.CL*d.CR)
	}
	// dL = cL + (y/x)cR, dR = cR + (x/y)cL.
	if !almostEq(d.DL, d.CL+0.25*d.CR, 1e-12) || !almostEq(d.DR, d.CR+4*d.CL, 1e-12) {
		t.Errorf("d = %v/%v", d.DL, d.DR)
	}
}

func TestTwoUniformValidation(t *testing.T) {
	if _, err := TwoUniform(0, 0.1, 1, 1); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := TwoUniform(10, 0, 1, 1); err == nil {
		t.Error("s=0 must fail")
	}
	if _, err := TwoUniform(10, 2, 1, 1); err == nil {
		t.Error("s>1 must fail")
	}
	if _, err := TwoUniform(10, 0.1, 0, 1); err == nil {
		t.Error("zero slab must fail")
	}
}

func TestHierarchyWorstBaseCase(t *testing.T) {
	// l = r = 1 must reduce to the symmetric two-uniform case regardless of n.
	d, err := HierarchyWorst(100, 0.01, 1, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(100 / 0.01)
	if !almostEq(d.CL, want, 1e-9) || !almostEq(d.DL, 2*want, 1e-9) {
		t.Errorf("base case c=%v d=%v, want %v / %v", d.CL, d.DL, want, 2*want)
	}
}

func TestHierarchyWorstInvariants(t *testing.T) {
	k, s, n := 50.0, 0.01, 10000.0
	for _, lr := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 1}, {3, 2}} {
		d, err := HierarchyWorst(k, s, lr[0], lr[1], n)
		if err != nil {
			t.Fatal(err)
		}
		// The any-k constraint holds with equality at the minimizer.
		if !almostEq(s*d.CL*d.CR, k, 1e-6) {
			t.Errorf("l=%d r=%d: s·cL·cR = %v, want %v", lr[0], lr[1], s*d.CL*d.CR, k)
		}
		// Top-k depths dominate any-k depths.
		if d.DL < d.CL || d.DR < d.CR {
			t.Errorf("l=%d r=%d: top-k depths must dominate any-k (%+v)", lr[0], lr[1], d)
		}
		// Equations 4/5 multipliers.
		lf, rf := float64(lr[0]), float64(lr[1])
		if !almostEq(d.DL, d.CL*math.Pow(1+rf/lf, lf), 1e-9) {
			t.Errorf("l=%d r=%d: dL multiplier wrong", lr[0], lr[1])
		}
		if !almostEq(d.DR, d.CR*math.Pow(1+lf/rf, rf), 1e-9) {
			t.Errorf("l=%d r=%d: dR multiplier wrong", lr[0], lr[1])
		}
	}
}

func TestHierarchySymmetryMirrors(t *testing.T) {
	// Swapping l and r must swap the depth pair.
	a, err := HierarchyWorst(80, 0.05, 2, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HierarchyWorst(80, 0.05, 1, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(a.DL, b.DR, 1e-9) || !almostEq(a.DR, b.DL, 1e-9) {
		t.Errorf("mirror mismatch: %+v vs %+v", a, b)
	}
}

func TestAlternatingBaseCase(t *testing.T) {
	// l = r = 1 over inputs of one size is TwoUniform's symmetric case,
	// whatever that size: cL = cR = sqrt(k/s), dL = dR = 2·sqrt(k/s).
	for _, c := range []struct{ k, s, m float64 }{{100, 0.01, 5000}, {1, 0.005, 4000}, {50, 0.1, 60}} {
		a, err := Alternating(c.k, c.s, 1, 1, c.m, c.m)
		if err != nil {
			t.Fatal(err)
		}
		tu, err := TwoUniform(c.k, c.s, 1/c.m, 1/c.m)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(a.CL, tu.CL, 1e-12) || !almostEq(a.CR, tu.CR, 1e-12) ||
			!almostEq(a.DL, tu.DL, 1e-12) || !almostEq(a.DR, tu.DR, 1e-12) {
			t.Errorf("k=%v s=%v m=%v: Alternating %+v, TwoUniform %+v", c.k, c.s, c.m, a, tu)
		}
	}
}

func TestAlternatingOneDepth(t *testing.T) {
	// HRJN alternates, so both sides get one depth; it grows with k.
	const n, s = 1500.0, 0.01
	card := func(j int) float64 { return math.Pow(n, float64(j)) * math.Pow(s, float64(j-1)) }
	for _, lr := range [][2]int{{1, 2}, {2, 1}, {2, 2}, {1, 3}, {3, 2}, {1, 1}} {
		l, r := lr[0], lr[1]
		prev := 0.0
		for k := 1.0; k <= 500; k++ {
			d, err := Alternating(k, s, l, r, card(l), card(r))
			if err != nil {
				t.Fatal(err)
			}
			if d.DL != d.DR {
				t.Fatalf("l=%d r=%d k=%v: dL %v != dR %v", l, r, k, d.DL, d.DR)
			}
			if d.DL < prev {
				t.Fatalf("l=%d r=%d: depth fell from %v to %v at k=%v", l, r, prev, d.DL, k)
			}
			prev = d.DL
		}
	}
	for _, bad := range []struct {
		k, s   float64
		l, r   int
		mL, mR float64
	}{{0, 0.1, 1, 2, 10, 10}, {1, 2, 1, 2, 10, 10}, {1, 0.1, 0, 2, 10, 10}, {1, 0.1, 1, 2, 0, 10}} {
		if _, err := Alternating(bad.k, bad.s, bad.l, bad.r, bad.mL, bad.mR); err == nil {
			t.Errorf("Alternating%+v: want an error", bad)
		}
	}
}

func TestHierarchyAvgBaseCase(t *testing.T) {
	// l = r = 1: dL = sqrt(2k/s).
	d, err := HierarchyAvg(100, 0.01, 1, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * 100 / 0.01)
	if !almostEq(d.DL, want, 1e-9) || !almostEq(d.DR, want, 1e-9) {
		t.Errorf("avg base d=%v/%v, want %v", d.DL, d.DR, want)
	}
}

func TestAvgBelowWorst(t *testing.T) {
	f := func(kSeed, sSeed uint8) bool {
		k := float64(kSeed%200) + 1
		s := (float64(sSeed%99) + 1) / 100
		for _, lr := range [][2]int{{1, 1}, {2, 1}, {2, 2}} {
			w, err1 := HierarchyWorst(k, s, lr[0], lr[1], 10000)
			a, err2 := HierarchyAvg(k, s, lr[0], lr[1], 10000)
			if err1 != nil || err2 != nil {
				return false
			}
			if a.DL > w.DL*(1+1e-9) || a.DR > w.DR*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: depths are monotone in k and anti-monotone in s.
func TestDepthMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Float64()*500
		s := 0.001 + rng.Float64()*0.5
		d1, err := HierarchyWorst(k, s, 2, 1, 10000)
		if err != nil {
			return false
		}
		d2, err := HierarchyWorst(k*2, s, 2, 1, 10000)
		if err != nil {
			return false
		}
		d3, err := HierarchyWorst(k, s/2, 2, 1, 10000)
		if err != nil {
			return false
		}
		return d2.DL >= d1.DL && d2.DR >= d1.DR && d3.DL >= d1.DL && d3.DR >= d1.DR
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestScoreQuantile(t *testing.T) {
	// j=1 over [0,n] with m = n draws: score_i = n - i.
	got, err := ScoreQuantile(1, 1000, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 990, 1e-12) {
		t.Errorf("u1 quantile = %v, want 990", got)
	}
	// j=2 (paper's example): score_i = 2n - sqrt(2 i n) for m = n.
	got, err = ScoreQuantile(2, 1000, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want := 2000 - math.Sqrt(2*10*1000)
	if !almostEq(got, want, 1e-12) {
		t.Errorf("u2 quantile = %v, want %v", got, want)
	}
	if _, err := ScoreQuantile(0, 1, 1, 1); err == nil {
		t.Error("j=0 must fail")
	}
	if _, err := ScoreQuantile(1, 1, 0, 1); err == nil {
		t.Error("i=0 must fail")
	}
}

// Monte-Carlo check of Theorem 1: joining the top cL and cR tuples of two
// uniform lists yields at least k expected matches.
func TestAnyKDepthsTheorem1(t *testing.T) {
	const (
		n = 4000
		k = 30
		s = 0.01 // key domain of 100
	)
	d, err := TwoUniform(k, s, 1.0/n, 1.0/n)
	if err != nil {
		t.Fatal(err)
	}
	cL, cR := d.CL, d.CR
	if s*cL*cR < k-1e-9 {
		t.Fatalf("constraint violated: s·cL·cR = %v", s*cL*cR)
	}
	trials, totalMatches := 30, 0
	rng := rand.New(rand.NewSource(99))
	for tr := 0; tr < trials; tr++ {
		// The top-c tuples of a ranked uniform list are a uniform random
		// subset with respect to the independent join key.
		domain := int(math.Round(1 / s))
		hist := make([]int, domain)
		for i := 0; i < int(cL); i++ {
			hist[rng.Intn(domain)]++
		}
		for i := 0; i < int(cR); i++ {
			totalMatches += hist[rng.Intn(domain)]
		}
	}
	avg := float64(totalMatches) / float64(trials)
	if avg < k*0.7 {
		t.Errorf("expected >= ~%d matches within the any-k prefixes, measured %v", k, avg)
	}
}

func TestBufferUpperBound(t *testing.T) {
	if BufferUpperBound(100, 200, 0.01) != 200 {
		t.Error("buffer bound arithmetic")
	}
}

func TestTwoUniformAvg(t *testing.T) {
	// Symmetric: dL = sqrt(2k/s), matching HierarchyAvg at l=r=1.
	d, err := TwoUniformAvg(100, 0.01, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2 * 100 / 0.01)
	if !almostEq(d.DL, want, 1e-12) || !almostEq(d.DR, want, 1e-12) {
		t.Errorf("avg d = %v/%v, want %v", d.DL, d.DR, want)
	}
	h, err := HierarchyAvg(100, 0.01, 1, 1, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d.DL, h.DL, 1e-9) {
		t.Errorf("TwoUniformAvg %v disagrees with HierarchyAvg %v", d.DL, h.DL)
	}
	// Average always at or below worst case; any-k fields preserved.
	w, _ := TwoUniform(100, 0.01, 1, 1)
	if d.DL > w.DL || d.CL != w.CL {
		t.Error("avg must not exceed worst; c values shared")
	}
	// Asymmetric slabs scale like the worst case.
	d, err = TwoUniformAvg(64, 0.1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d.DL, math.Sqrt(2*64/(4*0.1)), 1e-12) {
		t.Errorf("asymmetric avg dL = %v", d.DL)
	}
	if _, err := TwoUniformAvg(0, 0.1, 1, 1); err == nil {
		t.Error("invalid parameters must fail")
	}
}

// Empirical check of Equation 1: the expected i-th largest of m draws from
// u_j (sum of j uniforms on [0,n]) matches the closed form in the upper
// tail.
func TestScoreQuantileEmpirical(t *testing.T) {
	const (
		n      = 1.0
		m      = 20000
		trials = 40
	)
	rng := rand.New(rand.NewSource(271))
	for _, j := range []int{1, 2, 3} {
		// Average the i-th largest over several trials.
		for _, i := range []float64{10, 100, 500} {
			sum := 0.0
			for tr := 0; tr < trials; tr++ {
				draws := make([]float64, m)
				for d := range draws {
					v := 0.0
					for u := 0; u < j; u++ {
						v += rng.Float64() * n
					}
					draws[d] = v
				}
				sort.Float64s(draws)
				sum += draws[m-int(i)]
			}
			measured := sum / trials
			predicted, err := ScoreQuantile(j, n, i, m)
			if err != nil {
				t.Fatal(err)
			}
			// The tail formula is asymptotic; allow 10% relative error on
			// the distance from the maximum possible score j*n.
			gapM := float64(j)*n - measured
			gapP := float64(j)*n - predicted
			if math.Abs(gapM-gapP) > 0.12*math.Max(gapM, gapP) {
				t.Errorf("j=%d i=%v: measured %v, Equation 1 predicts %v", j, i, measured, predicted)
			}
		}
	}
}

// Empirical check of the base-case depth model: an actual HRJN-style
// computation over two uniform ranked lists needs depths between the any-k
// and worst-case estimates to surface the top-k join results.
func TestTwoUniformDepthsEmpirical(t *testing.T) {
	const (
		n      = 4000
		k      = 25
		s      = 0.02 // key domain 50
		trials = 30
	)
	rng := rand.New(rand.NewSource(137))
	d, err := TwoUniform(k, s, 1.0/n, 1.0/n)
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		key   int
		score float64
	}
	domain := int(math.Round(1 / s))
	totalDepth := 0.0
	for tr := 0; tr < trials; tr++ {
		mk := func() []row {
			rows := make([]row, n)
			for i := range rows {
				rows[i] = row{key: rng.Intn(domain), score: rng.Float64()}
			}
			sort.Slice(rows, func(a, b int) bool { return rows[a].score > rows[b].score })
			return rows
		}
		L, R := mk(), mk()
		// Exact k-th best combined score by brute force.
		var scores []float64
		for _, l := range L {
			for _, r := range R {
				if l.key == r.key {
					scores = append(scores, l.score+r.score)
				}
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		kth := scores[k-1]
		// Minimum symmetric depth d such that the top-d prefixes contain k
		// results with score >= kth AND the threshold has dropped below kth.
		depth := 0
		for dd := 1; dd <= n; dd++ {
			thr := math.Max(L[0].score+R[dd-1].score, L[dd-1].score+R[0].score)
			if thr > kth {
				continue
			}
			cnt := 0
			for _, l := range L[:dd] {
				for _, r := range R[:dd] {
					if l.key == r.key && l.score+r.score >= kth {
						cnt++
					}
				}
			}
			if cnt >= k {
				depth = dd
				break
			}
		}
		if depth == 0 {
			depth = n
		}
		totalDepth += float64(depth)
	}
	avgDepth := totalDepth / trials
	// The measured minimal depth must sit in [cL/2, dL*1.2].
	if avgDepth < d.CL*0.5 || avgDepth > d.DL*1.2 {
		t.Errorf("empirical depth %v outside [any-k/2=%v, worst*1.2=%v]",
			avgDepth, d.CL*0.5, d.DL*1.2)
	}
}

func TestOneSidedDepth(t *testing.T) {
	// Symmetric slabs: equals the average-case two-sided depth sqrt(2k/s).
	d, err := OneSidedDepth(100, 0.01, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, math.Sqrt(2*100/0.01), 1e-12) {
		t.Errorf("one-sided depth = %v", d)
	}
	// Steeper outer slab (x large): shallower outer dig.
	steep, _ := OneSidedDepth(100, 0.01, 4, 1)
	flat, _ := OneSidedDepth(100, 0.01, 0.25, 1)
	if steep >= d || flat <= d {
		t.Errorf("slab scaling wrong: steep=%v base=%v flat=%v", steep, d, flat)
	}
	if _, err := OneSidedDepth(0, 0.1, 1, 1); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := OneSidedDepth(10, 0.1, 0, 1); err == nil {
		t.Error("zero slab must fail")
	}
}

// Empirical check of the one-sided analysis against an actual NRJN-style
// stopping rule: the measured outer depth should track sqrt(2k y/(s x)).
func TestOneSidedDepthEmpirical(t *testing.T) {
	const (
		n      = 4000
		k      = 25
		s      = 0.02
		trials = 25
	)
	rng := rand.New(rand.NewSource(777))
	want, err := OneSidedDepth(k, s, 1.0/n, 1.0/n)
	if err != nil {
		t.Fatal(err)
	}
	domain := int(math.Round(1 / s))
	total := 0.0
	for tr := 0; tr < trials; tr++ {
		type row struct {
			key   int
			score float64
		}
		L := make([]row, n)
		R := make([]row, n)
		maxR := 0.0
		for i := range L {
			L[i] = row{rng.Intn(domain), rng.Float64()}
			R[i] = row{rng.Intn(domain), rng.Float64()}
			if R[i].score > maxR {
				maxR = R[i].score
			}
		}
		sort.Slice(L, func(a, b int) bool { return L[a].score > L[b].score })
		// k-th best combined score by brute force.
		var scores []float64
		for _, l := range L {
			for _, r := range R {
				if l.key == r.key {
					scores = append(scores, l.score+r.score)
				}
			}
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
		kth := scores[k-1]
		// The NRJN stopping depth: first dL with L[dL-1].score+maxR <= kth
		// and at least k results found in the prefix.
		depth := n
		cnt := 0
		for d := 1; d <= n; d++ {
			for _, r := range R {
				if L[d-1].key == r.key && L[d-1].score+r.score >= kth {
					cnt++
				}
			}
			if cnt >= k && L[d-1].score+maxR <= kth {
				depth = d
				break
			}
		}
		total += float64(depth)
	}
	measured := total / trials
	if measured < want*0.5 || measured > want*1.6 {
		t.Errorf("measured one-sided depth %v, model predicts %v", measured, want)
	}
}

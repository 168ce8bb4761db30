package main

import (
	"sort"
	"time"
)

// The reference kernel is a fixed piece of work that belongs to the benchmark
// and shares nothing with the engine: it sorts 2048 floats twice and pushes
// them through a binary heap, in 48 kB of its own memory, with no allocation.
// Each client runs it between two requests every calibrateEvery, and the
// set-up loop runs it after each set-up.
//
// Why: the machines this runs on are shared, and for seconds to tens of
// minutes at a time they execute everything 10-30 % slower. The kernel's
// duration follows those phases and nothing else (its quartiles are the same
// under all four workloads), so dividing a timing by the kernel's slowdown at
// that moment gives the timing at reference speed. On recorded windows that
// took the distance between the quartiles of ten runs from 6-9 % to 2-5 %. A
// kernel that misses the caches (a pointer chase, map lookups over 1 MB) was
// tried too and made things worse: its own time varies by more than the
// workloads' does. One that allocates would follow the engine's garbage
// collector, not the host.
type kernel struct {
	src, tmp, heap []float64
	sink           float64
}

const (
	kernelLen = 2048
	// kernelNominal is the kernel's duration at reference speed: the lower
	// quartile of 18 000 runs on the 2-vCPU build VM. All timing metrics are
	// reported at this speed.
	kernelNominal = 450 * time.Microsecond
	// calibrateEvery is how often a client runs the kernel: ~0.5 % of its time.
	calibrateEvery = 100 * time.Millisecond
	// setupKernelRuns is how many kernel runs follow each set-up.
	setupKernelRuns = 5
)

func newKernel() *kernel {
	k := &kernel{
		src:  make([]float64, kernelLen),
		tmp:  make([]float64, kernelLen),
		heap: make([]float64, 0, kernelLen),
	}
	x := uint64(88172645463325252)
	for i := range k.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.src[i] = float64(x%1000003) / 7
	}
	return k
}

// run does the kernel's work once and returns how long it took.
func (k *kernel) run() time.Duration {
	t0 := time.Now()
	for r := 0; r < 2; r++ {
		copy(k.tmp, k.src)
		sort.Float64s(k.tmp)
	}
	k.sink += k.tmp[7]
	h := k.heap[:0]
	for _, v := range k.src {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	for len(h) > 0 {
		n := len(h) - 1
		k.sink += h[0]
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < n && h[l] < h[m] {
				m = l
			}
			if r < n && h[r] < h[m] {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	return time.Since(t0)
}

// slowdown is how much slower than reference speed the machine ran while the
// given kernel runs were taken: their median over the nominal duration.
func slowdown(runs []time.Duration) float64 {
	v := make([]float64, len(runs))
	for i, d := range runs {
		v[i] = float64(d)
	}
	return median(v) / float64(kernelNominal)
}

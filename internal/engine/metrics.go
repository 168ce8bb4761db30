package engine

// This file is the engine-wide observability layer: every query session,
// whatever goroutine runs it, lands in one block of atomic counters plus
// fixed-bucket histograms. Snapshot() exposes the aggregate
// programmatically and DebugMux serves it over HTTP (stdlib only) as
// Prometheus-style text at /metrics and as a JSON document at /debug/engine.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"rankopt/internal/exec"
	"rankopt/internal/plan"
)

// latencyBucketBounds are the latency histograms' inclusive upper bounds. The
// geometric 1-2.5-5 ladder spans sub-millisecond cache hits up to
// multi-second cold optimizer runs; an implicit overflow bucket catches the
// rest. Fixed buckets keep observation allocation-free and lock-free.
var latencyBucketBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
}

const numLatencyBuckets = len(latencyBucketBounds) + 1

// Per-operator-type histograms: one depth and one latency histogram per
// rank-aware operator kind, so HRJN vs AnyK vs ShardMerge behavior is
// visible in aggregate on /metrics, not only per query in EXPLAIN ANALYZE.
const (
	histOpHRJN = iota
	histOpNRJN
	histOpAnyK
	histOpTopK
	histOpShardMerge
	numHistOps
)

// histOpNames spell the `op` label values on /metrics.
var histOpNames = [numHistOps]string{"HRJN", "NRJN", "AnyK", "TopKSort", "ShardMerge"}

// histOpIndex maps a plan operator to its histogram slot (-1: not tracked).
func histOpIndex(op plan.OpType) int {
	switch op {
	case plan.OpHRJN:
		return histOpHRJN
	case plan.OpNRJN:
		return histOpNRJN
	case plan.OpAnyK:
		return histOpAnyK
	case plan.OpTopK:
		return histOpTopK
	}
	return -1
}

// opDepthBounds are the depth histogram's inclusive upper bounds (tuples
// consumed per input for rank joins and any-k, heap high-water for TopK,
// tuples pulled for the shard coordinator). Powers of four: depths span
// k≈1 lookups to full-input drains.
var opDepthBounds = [...]int64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

// latencyBoundsNanos is the latency ladder in nanoseconds, the unit every
// latency histogram (sessions and per-operator wall time) observes in.
var latencyBoundsNanos = func() []int64 {
	out := make([]int64, len(latencyBucketBounds))
	for i, d := range latencyBucketBounds {
		out[i] = d.Nanoseconds()
	}
	return out
}()

// opHist is the engine's one lock-free fixed-bucket histogram. The bucket
// array is sized for the larger (latency) bound ladder; the depth family uses
// a prefix.
type opHist struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [numLatencyBuckets]atomic.Uint64
}

func (h *opHist) observe(bounds []int64, v int64) {
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(uint64(v))
	}
	for i, b := range bounds {
		if v <= b {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(bounds)].Add(1)
}

// quantile returns the upper bound of the first bucket reaching q·count
// (the overflow bucket saturates at the largest finite bound).
func (h *opHist) quantile(bounds []int64, q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := uint64(q * float64(total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for i, b := range bounds {
		cum += h.buckets[i].Load()
		if cum >= need {
			return float64(b)
		}
	}
	return float64(bounds[len(bounds)-1])
}

// metrics is the engine's live counter block. All fields are atomics:
// observation happens once per session (never per tuple) from arbitrarily
// many worker goroutines.
type metrics struct {
	queries  atomic.Uint64
	errors   atomic.Uint64
	analyzed atomic.Uint64
	tuples   atomic.Uint64

	// cancelled / deadlined / overBudget / admissionTimeouts classify the
	// error sessions by the robustness taxonomy (each such session also
	// counts in errors).
	cancelled         atomic.Uint64
	deadlined         atomic.Uint64
	overBudget        atomic.Uint64
	admissionTimeouts atomic.Uint64
	// admissionWaiting is the live admission-queue depth gauge.
	admissionWaiting atomic.Int64

	// traced counts sessions that carried a span recorder; slowQueries counts
	// sessions logged by the slow-query log.
	traced      atomic.Uint64
	slowQueries atomic.Uint64

	// shardedQueries..shardTuplesSaved aggregate the scatter-gather tier:
	// sessions served by the coordinator, sessions whose plan the
	// partitioning could not cover (they run the single path despite
	// sharding being on), and the coordinator's shard outcomes (started /
	// pruned before starting / cancelled mid-stream by the bound test) with
	// the shard output the bounds avoided pulling.
	shardedQueries     atomic.Uint64
	shardFallbacks     atomic.Uint64
	shardsStarted      atomic.Uint64
	shardsPruned       atomic.Uint64
	shardsEarlyStopped atomic.Uint64
	shardTuplesSaved   atomic.Uint64

	// opDepth / opLatency are the per-operator-type histograms: depths dug
	// (every session, via the rank-join stats hook) and operator wall time
	// (analyzed/traced sessions, which are the only ones that measure it).
	opDepth   [numHistOps]opHist
	opLatency [numHistOps]opHist

	// optRuns..optProtected aggregate the optimizer's enumeration and
	// pruning work over fresh (non-cache-hit) optimizations, the engine-wide
	// view of the Section 3.3 pruning rates.
	optRuns      atomic.Uint64
	optGenerated atomic.Uint64
	optPruned    atomic.Uint64
	optProtected atomic.Uint64

	// anykPlans counts executed sessions whose chosen plan carried an any-k
	// enumerator — the engine-wide view of how often the DP's crossover
	// actually fires in traffic.
	anykPlans atomic.Uint64

	// latency is the session latency histogram (nanoseconds).
	latency opHist
}

// observeOptimize folds one fresh optimizer run's counters into the
// aggregate pruning-rate metrics.
func (m *metrics) observeOptimize(c plan.PlanCounters) {
	m.optRuns.Add(1)
	m.optGenerated.Add(uint64(c.Generated))
	m.optPruned.Add(uint64(c.Pruned))
	m.optProtected.Add(uint64(c.Protected))
}

// observeSharded folds one sharded session's coordinator stats into the
// engine-wide shard counters, plus the coordinator's row in the per-operator
// histograms (depth = tuples pulled across shards, latency = the gather's
// wall time).
func (m *metrics) observeSharded(st *exec.ShardMergeStats, execNanos int64) {
	m.shardedQueries.Add(1)
	m.shardsStarted.Add(uint64(st.Started))
	m.shardsPruned.Add(uint64(st.Pruned))
	m.shardsEarlyStopped.Add(uint64(st.EarlyStopped))
	m.shardTuplesSaved.Add(uint64(st.TuplesSaved))
	m.opDepth[histOpShardMerge].observe(opDepthBounds[:], int64(st.TuplesPulled))
	m.opLatency[histOpShardMerge].observe(latencyBoundsNanos, execNanos)
}

// observeOpDepth / observeOpLatency fold one operator measurement into the
// per-type histograms; idx < 0 (untracked operator) is a no-op.
func (m *metrics) observeOpDepth(idx int, v int64) {
	if idx >= 0 {
		m.opDepth[idx].observe(opDepthBounds[:], v)
	}
}

func (m *metrics) observeOpLatency(idx int, nanos int64) {
	if idx >= 0 {
		m.opLatency[idx].observe(latencyBoundsNanos, nanos)
	}
}

// observe folds one finished session into the counters.
func (m *metrics) observe(resp *Response, analyzed bool) {
	m.queries.Add(1)
	if resp.Err != nil {
		m.errors.Add(1)
		switch {
		case errors.Is(resp.Err, exec.ErrDeadlineExceeded):
			m.deadlined.Add(1)
		case errors.Is(resp.Err, exec.ErrQueryCancelled):
			m.cancelled.Add(1)
		case errors.Is(resp.Err, exec.ErrBudgetExceeded):
			m.overBudget.Add(1)
		case errors.Is(resp.Err, ErrAdmissionTimeout):
			m.admissionTimeouts.Add(1)
		}
	}
	if analyzed {
		m.analyzed.Add(1)
	}
	m.tuples.Add(uint64(len(resp.Tuples)))
	m.latency.observe(latencyBoundsNanos, resp.Elapsed.Nanoseconds())
}

// LatencyBucket is one cumulative histogram step of a Metrics snapshot.
type LatencyBucket struct {
	// UpperBoundMillis is the bucket's inclusive upper bound; the overflow
	// bucket reports +Inf as a negative bound in JSON-friendly form (-1).
	UpperBoundMillis float64 `json:"upper_bound_ms"`
	// CumulativeCount counts sessions at or under the bound.
	CumulativeCount uint64 `json:"cumulative_count"`
}

// Metrics is a point-in-time snapshot of the engine-wide counters.
type Metrics struct {
	Queries        uint64 `json:"queries"`
	Errors         uint64 `json:"errors"`
	Analyzed       uint64 `json:"analyzed"`
	TuplesReturned uint64 `json:"tuples_returned"`

	QueriesCancelled  uint64 `json:"queries_cancelled"`
	QueriesDeadlined  uint64 `json:"queries_deadline_exceeded"`
	QueriesOverBudget uint64 `json:"queries_over_budget"`
	AdmissionTimeouts uint64 `json:"admission_timeouts"`
	AdmissionWaiting  int64  `json:"admission_waiting"`
	InFlight          int    `json:"in_flight"`

	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
	CacheEntries       int    `json:"cache_entries"`

	TracedQueries uint64 `json:"traced_queries"`
	SlowQueries   uint64 `json:"slow_queries"`

	// ShardedQueries..ShardTuplesSaved report the scatter-gather tier (all
	// zero on an unsharded engine). ShardFallbacks counts sessions whose plan
	// the partitioning could not cover.
	ShardedQueries     uint64 `json:"sharded_queries"`
	ShardFallbacks     uint64 `json:"shard_fallbacks"`
	ShardsStarted      uint64 `json:"shards_started"`
	ShardsPruned       uint64 `json:"shards_pruned"`
	ShardsEarlyStopped uint64 `json:"shards_early_stopped"`
	ShardTuplesSaved   uint64 `json:"shard_tuples_saved"`

	// Operators are the per-operator-type depth/latency histograms in
	// summary form (full buckets are on /metrics).
	Operators []OperatorMetrics `json:"operators"`

	// OptimizerRuns..PlansProtected aggregate fresh (non-cached) optimizer
	// runs: candidates enumerated, discarded by the Section 3.3 pruning, and
	// pipelined plans kept alive by the First-N-Rows protection.
	OptimizerRuns  uint64 `json:"optimizer_runs"`
	PlansGenerated uint64 `json:"plans_generated"`
	PlansPruned    uint64 `json:"plans_pruned"`
	PlansProtected uint64 `json:"plans_protected"`

	// AnyKPlans counts executed sessions whose chosen plan carried an any-k
	// enumerator.
	AnyKPlans uint64 `json:"anyk_plans"`

	AvgLatencyMillis float64 `json:"avg_latency_ms"`
	// P50LatencyMillis and P99LatencyMillis are histogram-quantile estimates:
	// the upper bound of the bucket containing the quantile (the usual
	// fixed-bucket approximation).
	P50LatencyMillis float64         `json:"p50_latency_ms"`
	P99LatencyMillis float64         `json:"p99_latency_ms"`
	LatencyBuckets   []LatencyBucket `json:"latency_buckets"`

	Runtime RuntimeStats `json:"runtime"`
}

// OperatorMetrics summarizes one operator type's histograms: how deep it
// dug (depth samples: per-input tuples consumed for rank joins and any-k,
// heap high-water for TopK, tuples pulled for ShardMerge) and how long it
// ran (from analyzed/traced sessions, the only ones that time operators).
type OperatorMetrics struct {
	Op               string  `json:"op"`
	DepthCount       uint64  `json:"depth_count"`
	DepthSum         uint64  `json:"depth_sum"`
	DepthP50         float64 `json:"depth_p50"`
	DepthP99         float64 `json:"depth_p99"`
	LatencyCount     uint64  `json:"latency_count"`
	LatencySumNanos  uint64  `json:"latency_sum_ns"`
	LatencyP50Millis float64 `json:"latency_p50_ms"`
	LatencyP99Millis float64 `json:"latency_p99_ms"`
}

// RuntimeStats is the Go runtime's health snapshot riding along with the
// engine counters: goroutine count, heap occupancy, and GC behavior
// (cycle count plus the p99 of the runtime's recent-pause ring buffer).
type RuntimeStats struct {
	Goroutines       int     `json:"goroutines"`
	HeapAllocBytes   uint64  `json:"heap_alloc_bytes"`
	HeapObjects      uint64  `json:"heap_objects"`
	GCCycles         uint32  `json:"gc_cycles"`
	GCPauseP99Micros float64 `json:"gc_pause_p99_us"`
	GCPauseLastNanos uint64  `json:"gc_pause_last_ns"`
}

// readRuntimeStats samples the Go runtime. ReadMemStats stops the world
// briefly; monitoring cadence, not per-query cadence.
func readRuntimeStats() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := RuntimeStats{
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
		GCCycles:       ms.NumGC,
	}
	if ms.NumGC > 0 {
		rs.GCPauseLastNanos = ms.PauseNs[(ms.NumGC+255)%256]
		n := int(ms.NumGC)
		if n > len(ms.PauseNs) {
			n = len(ms.PauseNs)
		}
		// PauseNs is a ring holding the most recent 256 pauses; walking back
		// from index NumGC-1 covers exactly the valid entries.
		pauses := make([]uint64, n)
		for i := 0; i < n; i++ {
			pauses[i] = ms.PauseNs[(int(ms.NumGC)-1-i)%len(ms.PauseNs)]
		}
		sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
		idx := (99*n - 1) / 100
		rs.GCPauseP99Micros = float64(pauses[idx]) / 1e3
	}
	return rs
}

// Snapshot captures the engine-wide counters. Buckets are read without a
// global lock, so a snapshot taken mid-traffic may be off by in-flight
// sessions — fine for monitoring, which is its job.
func (e *Engine) Snapshot() Metrics {
	m := Metrics{
		Queries:            e.met.queries.Load(),
		Errors:             e.met.errors.Load(),
		Analyzed:           e.met.analyzed.Load(),
		TuplesReturned:     e.met.tuples.Load(),
		QueriesCancelled:   e.met.cancelled.Load(),
		QueriesDeadlined:   e.met.deadlined.Load(),
		QueriesOverBudget:  e.met.overBudget.Load(),
		AdmissionTimeouts:  e.met.admissionTimeouts.Load(),
		AdmissionWaiting:   e.met.admissionWaiting.Load(),
		InFlight:           e.adm.inFlight(),
		TracedQueries:      e.met.traced.Load(),
		SlowQueries:        e.met.slowQueries.Load(),
		ShardedQueries:     e.met.shardedQueries.Load(),
		ShardFallbacks:     e.met.shardFallbacks.Load(),
		ShardsStarted:      e.met.shardsStarted.Load(),
		ShardsPruned:       e.met.shardsPruned.Load(),
		ShardsEarlyStopped: e.met.shardsEarlyStopped.Load(),
		ShardTuplesSaved:   e.met.shardTuplesSaved.Load(),
		OptimizerRuns:      e.met.optRuns.Load(),
		PlansGenerated:     e.met.optGenerated.Load(),
		PlansPruned:        e.met.optPruned.Load(),
		PlansProtected:     e.met.optProtected.Load(),
		AnyKPlans:          e.met.anykPlans.Load(),
		Runtime:            readRuntimeStats(),
	}
	for i, name := range histOpNames {
		d, l := &e.met.opDepth[i], &e.met.opLatency[i]
		m.Operators = append(m.Operators, OperatorMetrics{
			Op:               name,
			DepthCount:       d.count.Load(),
			DepthSum:         d.sum.Load(),
			DepthP50:         d.quantile(opDepthBounds[:], 0.50),
			DepthP99:         d.quantile(opDepthBounds[:], 0.99),
			LatencyCount:     l.count.Load(),
			LatencySumNanos:  l.sum.Load(),
			LatencyP50Millis: l.quantile(latencyBoundsNanos, 0.50) / 1e6,
			LatencyP99Millis: l.quantile(latencyBoundsNanos, 0.99) / 1e6,
		})
	}
	cs := e.CacheStats()
	m.CacheHits, m.CacheMisses = cs.Hits, cs.Misses
	m.CacheInvalidations, m.CacheEntries = cs.Invalidations, cs.Entries
	lat := &e.met.latency
	if m.Queries > 0 {
		m.AvgLatencyMillis = float64(lat.sum.Load()) / float64(m.Queries) / 1e6
	}
	var cum uint64
	for i := range lat.buckets {
		cum += lat.buckets[i].Load()
		m.LatencyBuckets = append(m.LatencyBuckets, LatencyBucket{
			UpperBoundMillis: bucketBoundMillis(i),
			CumulativeCount:  cum,
		})
	}
	m.P50LatencyMillis = lat.quantile(latencyBoundsNanos, 0.50) / 1e6
	m.P99LatencyMillis = lat.quantile(latencyBoundsNanos, 0.99) / 1e6
	return m
}

// bucketBoundMillis renders bucket i's upper bound (-1 encodes +Inf).
func bucketBoundMillis(i int) float64 {
	if i >= len(latencyBucketBounds) {
		return -1
	}
	return float64(latencyBucketBounds[i]) / 1e6
}

// DebugMux returns an http.Handler (stdlib ServeMux) exposing the engine:
//
//	/metrics        Prometheus-style text counters + latency histograms
//	/debug/engine   the full Metrics snapshot as JSON
//	/debug/queries  the live query registry as JSON: every running session's
//	                state, rank-aware progress (emitted/k, k-th score vs
//	                merge bound), and shard liveness, plus recently finished
//	                sessions. POST /debug/queries/{id}/cancel aborts a live
//	                session by registry ID.
//	/debug/pprof/   the Go runtime profiles (CPU, heap, goroutine, block,
//	                mutex, execution trace) via net/http/pprof — registered
//	                explicitly so they ride this private mux rather than
//	                http.DefaultServeMux
//
// Mount it on any server, e.g. http.ListenAndServe(addr, eng.DebugMux()).
func (e *Engine) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", e.serveMetricsText)
	mux.HandleFunc("/debug/engine", e.serveDebugJSON)
	mux.HandleFunc("GET /debug/queries", e.serveQueries)
	mux.HandleFunc("POST /debug/queries/{id}/cancel", e.serveQueryCancel)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveMetricsText writes the Prometheus text exposition format.
func (e *Engine) serveMetricsText(w http.ResponseWriter, _ *http.Request) {
	m := e.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# TYPE raqo_queries_total counter\nraqo_queries_total %d\n", m.Queries)
	fmt.Fprintf(w, "# TYPE raqo_errors_total counter\nraqo_errors_total %d\n", m.Errors)
	fmt.Fprintf(w, "# TYPE raqo_analyzed_queries_total counter\nraqo_analyzed_queries_total %d\n", m.Analyzed)
	fmt.Fprintf(w, "# TYPE raqo_tuples_returned_total counter\nraqo_tuples_returned_total %d\n", m.TuplesReturned)
	fmt.Fprintf(w, "# TYPE raqo_queries_cancelled_total counter\nraqo_queries_cancelled_total %d\n", m.QueriesCancelled)
	fmt.Fprintf(w, "# TYPE raqo_queries_deadline_exceeded_total counter\nraqo_queries_deadline_exceeded_total %d\n", m.QueriesDeadlined)
	fmt.Fprintf(w, "# TYPE raqo_queries_over_budget_total counter\nraqo_queries_over_budget_total %d\n", m.QueriesOverBudget)
	fmt.Fprintf(w, "# TYPE raqo_admission_timeouts_total counter\nraqo_admission_timeouts_total %d\n", m.AdmissionTimeouts)
	fmt.Fprintf(w, "# TYPE raqo_admission_waiting gauge\nraqo_admission_waiting %d\n", m.AdmissionWaiting)
	fmt.Fprintf(w, "# TYPE raqo_sessions_in_flight gauge\nraqo_sessions_in_flight %d\n", m.InFlight)
	fmt.Fprintf(w, "# TYPE raqo_plan_cache_hits_total counter\nraqo_plan_cache_hits_total %d\n", m.CacheHits)
	fmt.Fprintf(w, "# TYPE raqo_plan_cache_misses_total counter\nraqo_plan_cache_misses_total %d\n", m.CacheMisses)
	fmt.Fprintf(w, "# TYPE raqo_plan_cache_entries gauge\nraqo_plan_cache_entries %d\n", m.CacheEntries)
	fmt.Fprintf(w, "# TYPE raqo_traced_queries_total counter\nraqo_traced_queries_total %d\n", m.TracedQueries)
	fmt.Fprintf(w, "# TYPE raqo_slow_queries_total counter\nraqo_slow_queries_total %d\n", m.SlowQueries)
	fmt.Fprintf(w, "# TYPE raqo_sharded_queries_total counter\nraqo_sharded_queries_total %d\n", m.ShardedQueries)
	fmt.Fprintf(w, "# TYPE raqo_shard_fallbacks_total counter\nraqo_shard_fallbacks_total{reason=\"non_shardable\"} %d\n", m.ShardFallbacks)
	fmt.Fprintf(w, "# TYPE raqo_shards_started_total counter\nraqo_shards_started_total %d\n", m.ShardsStarted)
	fmt.Fprintf(w, "# TYPE raqo_shards_pruned_total counter\nraqo_shards_pruned_total %d\n", m.ShardsPruned)
	fmt.Fprintf(w, "# TYPE raqo_shards_early_stopped_total counter\nraqo_shards_early_stopped_total %d\n", m.ShardsEarlyStopped)
	fmt.Fprintf(w, "# TYPE raqo_shard_tuples_saved_total counter\nraqo_shard_tuples_saved_total %d\n", m.ShardTuplesSaved)
	fmt.Fprintf(w, "# TYPE raqo_optimizer_runs_total counter\nraqo_optimizer_runs_total %d\n", m.OptimizerRuns)
	fmt.Fprintf(w, "# TYPE raqo_optimizer_plans_generated_total counter\nraqo_optimizer_plans_generated_total %d\n", m.PlansGenerated)
	fmt.Fprintf(w, "# TYPE raqo_optimizer_plans_pruned_total counter\nraqo_optimizer_plans_pruned_total %d\n", m.PlansPruned)
	fmt.Fprintf(w, "# TYPE raqo_optimizer_plans_protected_total counter\nraqo_optimizer_plans_protected_total %d\n", m.PlansProtected)
	fmt.Fprintf(w, "# TYPE raqo_anyk_plans_total counter\nraqo_anyk_plans_total %d\n", m.AnyKPlans)
	fmt.Fprintf(w, "# TYPE raqo_goroutines gauge\nraqo_goroutines %d\n", m.Runtime.Goroutines)
	fmt.Fprintf(w, "# TYPE raqo_heap_alloc_bytes gauge\nraqo_heap_alloc_bytes %d\n", m.Runtime.HeapAllocBytes)
	fmt.Fprintf(w, "# TYPE raqo_gc_cycles_total counter\nraqo_gc_cycles_total %d\n", m.Runtime.GCCycles)
	fmt.Fprintf(w, "# TYPE raqo_gc_pause_p99_seconds gauge\nraqo_gc_pause_p99_seconds %g\n", m.Runtime.GCPauseP99Micros/1e6)
	fmt.Fprintf(w, "# TYPE raqo_query_latency_seconds histogram\n")
	writeLatencyHist(w, "raqo_query_latency_seconds", "", &e.met.latency)
	fmt.Fprintf(w, "# TYPE raqo_operator_depth histogram\n")
	for i, name := range histOpNames {
		h := &e.met.opDepth[i]
		var cum uint64
		for bi, bound := range opDepthBounds {
			cum += h.buckets[bi].Load()
			fmt.Fprintf(w, "raqo_operator_depth_bucket{op=%q,le=\"%d\"} %d\n", name, bound, cum)
		}
		cum += h.buckets[len(opDepthBounds)].Load()
		fmt.Fprintf(w, "raqo_operator_depth_bucket{op=%q,le=\"+Inf\"} %d\n", name, cum)
		fmt.Fprintf(w, "raqo_operator_depth_sum{op=%q} %d\n", name, h.sum.Load())
		fmt.Fprintf(w, "raqo_operator_depth_count{op=%q} %d\n", name, h.count.Load())
	}
	fmt.Fprintf(w, "# TYPE raqo_operator_latency_seconds histogram\n")
	for i, name := range histOpNames {
		writeLatencyHist(w, "raqo_operator_latency_seconds", fmt.Sprintf("op=%q", name), &e.met.opLatency[i])
	}
}

// writeLatencyHist writes one latency histogram's series in seconds; label is
// the series' label pair (op="HRJN"), empty for the session histogram.
func writeLatencyHist(w io.Writer, name, label string, h *opHist) {
	sel, prefix := "", ""
	if label != "" {
		sel, prefix = "{"+label+"}", label+","
	}
	var cum uint64
	for i, bound := range latencyBoundsNanos {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=\"%g\"} %d\n", name, prefix, float64(bound)/1e9, cum)
	}
	cum += h.buckets[len(latencyBoundsNanos)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, prefix, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, float64(h.sum.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, h.count.Load())
}

// serveDebugJSON writes the JSON snapshot.
func (e *Engine) serveDebugJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(e.Snapshot())
}

// serveQueries writes the live query registry as JSON.
func (e *Engine) serveQueries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	qs := e.Queries()
	if qs == nil {
		qs = []QueryInfo{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Queries []QueryInfo `json:"queries"`
	}{qs})
}

// serveQueryCancel aborts a live session by registry ID.
func (e *Engine) serveQueryCancel(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad query id", http.StatusBadRequest)
		return
	}
	cancelled := e.CancelQuery(id)
	w.Header().Set("Content-Type", "application/json")
	if !cancelled {
		w.WriteHeader(http.StatusNotFound)
	}
	fmt.Fprintf(w, "{\"id\": %d, \"cancelled\": %t}\n", id, cancelled)
}

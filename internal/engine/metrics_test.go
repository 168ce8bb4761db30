package engine

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rankopt/internal/core"
)

// TestSnapshotCountsSessions runs a mixed batch (including deliberate parse
// errors and one analyzed query) and checks the engine-wide counters add up.
func TestSnapshotCountsSessions(t *testing.T) {
	eng := testEngine(t, core.Options{})
	reqs := testRequests(14, true)
	var wantErrs, wantTuples uint64
	for _, r := range reqs {
		resp := eng.Run(r)
		if resp.Err != nil {
			wantErrs++
		}
		wantTuples += uint64(len(resp.Tuples))
	}
	aresp := eng.Run(Request{ID: "a", SQL: reqs[0].SQL, Analyze: true})
	if aresp.Err != nil {
		t.Fatal(aresp.Err)
	}
	wantTuples += uint64(len(aresp.Tuples))

	m := eng.Snapshot()
	if m.Queries != uint64(len(reqs))+1 {
		t.Errorf("Queries = %d, want %d", m.Queries, len(reqs)+1)
	}
	if m.Errors != wantErrs {
		t.Errorf("Errors = %d, want %d", m.Errors, wantErrs)
	}
	if m.Analyzed != 1 {
		t.Errorf("Analyzed = %d, want 1", m.Analyzed)
	}
	if m.TuplesReturned != wantTuples {
		t.Errorf("TuplesReturned = %d, want %d", m.TuplesReturned, wantTuples)
	}
	if m.AvgLatencyMillis <= 0 {
		t.Errorf("AvgLatencyMillis = %g, want > 0", m.AvgLatencyMillis)
	}
	if m.P50LatencyMillis <= 0 || m.P99LatencyMillis < m.P50LatencyMillis {
		t.Errorf("quantiles p50=%g p99=%g look wrong", m.P50LatencyMillis, m.P99LatencyMillis)
	}
	if len(m.LatencyBuckets) != numLatencyBuckets {
		t.Fatalf("%d latency buckets, want %d", len(m.LatencyBuckets), numLatencyBuckets)
	}
	last := m.LatencyBuckets[len(m.LatencyBuckets)-1]
	if last.UpperBoundMillis != -1 {
		t.Errorf("overflow bucket bound = %g, want -1 (+Inf)", last.UpperBoundMillis)
	}
	if last.CumulativeCount != m.Queries {
		t.Errorf("histogram total %d != queries %d", last.CumulativeCount, m.Queries)
	}
	for i := 1; i < len(m.LatencyBuckets); i++ {
		if m.LatencyBuckets[i].CumulativeCount < m.LatencyBuckets[i-1].CumulativeCount {
			t.Fatalf("cumulative counts not monotone at bucket %d", i)
		}
	}
}

// TestQuantileBound pins the fixed-bucket quantile estimate on a hand-built
// latency histogram: 90 observations in the 1ms bucket, 10 in the 100ms
// bucket.
func TestQuantileBound(t *testing.T) {
	var h opHist
	if got := h.quantile(latencyBoundsNanos, 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %g, want 0", got)
	}
	for i := 0; i < 90; i++ {
		h.observe(latencyBoundsNanos, (800 * time.Microsecond).Nanoseconds())
	}
	for i := 0; i < 10; i++ {
		h.observe(latencyBoundsNanos, (80 * time.Millisecond).Nanoseconds())
	}
	if got := h.quantile(latencyBoundsNanos, 0.50) / 1e6; got != 1.0 {
		t.Errorf("p50 = %gms, want 1", got)
	}
	if got := h.quantile(latencyBoundsNanos, 0.99) / 1e6; got != 100.0 {
		t.Errorf("p99 = %gms, want 100", got)
	}
}

// TestDebugMuxEndpoints serves the counters over HTTP (stdlib only) and
// checks both exposition formats.
func TestDebugMuxEndpoints(t *testing.T) {
	eng := testEngine(t, core.Options{})
	for _, r := range testRequests(6, false) {
		if resp := eng.Run(r); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	srv := httptest.NewServer(eng.DebugMux())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"raqo_queries_total 6",
		"raqo_errors_total 0",
		"raqo_plan_cache_misses_total",
		"raqo_query_latency_seconds_bucket{le=\"+Inf\"} 6",
		"raqo_query_latency_seconds_count 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/engine")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("/debug/engine not valid JSON: %v", err)
	}
	if m.Queries != 6 {
		t.Errorf("/debug/engine queries = %d, want 6", m.Queries)
	}
	if len(m.LatencyBuckets) != numLatencyBuckets {
		t.Errorf("/debug/engine has %d latency buckets, want %d", len(m.LatencyBuckets), numLatencyBuckets)
	}

	// Every session-latency line, from an engine fed known latencies: two on
	// the first bound (bounds are inclusive), one just past it, one mid-ladder,
	// one on the last bound and one in the overflow bucket.
	fed := testEngine(t, core.Options{})
	for _, d := range []time.Duration{0, 100 * time.Microsecond, 101 * time.Microsecond,
		7 * time.Millisecond, 2500 * time.Millisecond, 3 * time.Second} {
		fed.met.observe(&Response{Elapsed: d}, false)
	}
	fsrv := httptest.NewServer(fed.DebugMux())
	defer fsrv.Close()
	resp, err = fsrv.Client().Get(fsrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var got []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "raqo_query_latency_seconds") {
			got = append(got, line)
		}
	}
	want := []string{
		`raqo_query_latency_seconds_bucket{le="0.0001"} 2`,
		`raqo_query_latency_seconds_bucket{le="0.00025"} 3`,
		`raqo_query_latency_seconds_bucket{le="0.0005"} 3`,
		`raqo_query_latency_seconds_bucket{le="0.001"} 3`,
		`raqo_query_latency_seconds_bucket{le="0.0025"} 3`,
		`raqo_query_latency_seconds_bucket{le="0.005"} 3`,
		`raqo_query_latency_seconds_bucket{le="0.01"} 4`,
		`raqo_query_latency_seconds_bucket{le="0.025"} 4`,
		`raqo_query_latency_seconds_bucket{le="0.05"} 4`,
		`raqo_query_latency_seconds_bucket{le="0.1"} 4`,
		`raqo_query_latency_seconds_bucket{le="0.25"} 4`,
		`raqo_query_latency_seconds_bucket{le="0.5"} 4`,
		`raqo_query_latency_seconds_bucket{le="1"} 4`,
		`raqo_query_latency_seconds_bucket{le="2.5"} 5`,
		`raqo_query_latency_seconds_bucket{le="+Inf"} 6`,
		`raqo_query_latency_seconds_sum 5.507201`,
		`raqo_query_latency_seconds_count 6`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("latency exposition:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

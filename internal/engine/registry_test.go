package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rankopt/internal/core"
	"rankopt/internal/exec"
)

// waitForLiveQuery polls the registry until a live session in the executing
// or merging state appears (or the deadline passes), returning its info.
func waitForLiveQuery(t *testing.T, eng *Engine, deadline time.Duration) (QueryInfo, bool) {
	t.Helper()
	until := time.Now().Add(deadline)
	for time.Now().Before(until) {
		for _, qi := range eng.Queries() {
			if qi.State == "executing" || qi.State == "merging" {
				return qi, true
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return QueryInfo{}, false
}

// TestQueryRegistryLifecycle runs sessions to completion and checks the
// registry's recent ring: ascending IDs, terminal states, the top-k bound,
// and the rank-aware emitted count.
func TestQueryRegistryLifecycle(t *testing.T) {
	eng := testEngine(t, core.Options{})
	good := testRequests(1, false)[0]
	good.ID = "client-1"
	resp := eng.Run(good)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp := eng.Run(Request{SQL: "SELECT * FROM"}); resp.Err == nil {
		t.Fatal("parse error expected")
	}
	qs := eng.Queries()
	if len(qs) != 2 {
		t.Fatalf("registry holds %d sessions, want 2: %+v", len(qs), qs)
	}
	if qs[0].ID >= qs[1].ID {
		t.Fatalf("recent ring not in admission order: %d then %d", qs[0].ID, qs[1].ID)
	}
	ok, bad := qs[0], qs[1]
	if ok.State != "done" || ok.ClientID != "client-1" || ok.SQL != good.SQL {
		t.Errorf("finished session row wrong: %+v", ok)
	}
	if ok.Emitted == 0 || ok.Emitted != int64(len(resp.Tuples)) || ok.K == 0 || ok.Emitted > ok.K {
		t.Errorf("rank-aware progress wrong: emitted=%d rows=%d k=%d", ok.Emitted, len(resp.Tuples), ok.K)
	}
	if ok.ElapsedMillis <= 0 {
		t.Errorf("finished session has no elapsed time: %+v", ok)
	}
	if bad.State != "aborted" || bad.Error == "" {
		t.Errorf("failed session row wrong: %+v", bad)
	}
}

// TestCancelQueryByID is the acceptance check for cancel-by-id: a running
// session observed on the registry is aborted through its registry ID and
// surfaces exec.ErrQueryCancelled.
func TestCancelQueryByID(t *testing.T) {
	eng := heavyEngine(t, Config{})
	if resp := eng.Run(Request{SQL: heavySQL, ExplainOnly: true}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	done := make(chan Response, 1)
	go func() { done <- eng.Run(Request{ID: "victim", SQL: heavySQL}) }()
	qi, found := waitForLiveQuery(t, eng, 2*time.Second)
	if !found {
		t.Fatal("running session never appeared on the registry")
	}
	if !eng.CancelQuery(qi.ID) {
		t.Fatalf("CancelQuery(%d) found no live session", qi.ID)
	}
	resp := <-done
	if !errors.Is(resp.Err, exec.ErrQueryCancelled) {
		t.Fatalf("cancelled session returned %v, want ErrQueryCancelled", resp.Err)
	}
	if eng.CancelQuery(qi.ID) {
		t.Error("finished session must no longer be cancellable")
	}
	for _, q := range eng.Queries() {
		if q.ID == qi.ID && q.State != "aborted" {
			t.Errorf("cancelled session state = %s, want aborted", q.State)
		}
	}
}

// TestQueriesEndpoint drives /debug/queries over HTTP: the JSON document
// shows a running query's progress, cancel-by-id aborts it, bad and unknown
// IDs answer 400 and 404.
func TestQueriesEndpoint(t *testing.T) {
	eng := heavyEngine(t, Config{})
	if resp := eng.Run(Request{SQL: heavySQL, ExplainOnly: true}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	srv := httptest.NewServer(eng.DebugMux())
	defer srv.Close()

	done := make(chan Response, 1)
	go func() { done <- eng.Run(Request{ID: "http-victim", SQL: heavySQL}) }()
	qi, found := waitForLiveQuery(t, eng, 2*time.Second)
	if !found {
		t.Fatal("running session never appeared on the registry")
	}

	hr, err := srv.Client().Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Queries []QueryInfo `json:"queries"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/queries not valid JSON: %v", err)
	}
	hr.Body.Close()
	var live *QueryInfo
	for i := range doc.Queries {
		if doc.Queries[i].ID == qi.ID {
			live = &doc.Queries[i]
		}
	}
	if live == nil {
		t.Fatalf("running session %d missing from /debug/queries: %+v", qi.ID, doc.Queries)
	}
	if live.SQL != heavySQL || live.ClientID != "http-victim" {
		t.Errorf("live row wrong: %+v", live)
	}

	cr, err := srv.Client().Post(fmt.Sprintf("%s/debug/queries/%d/cancel", srv.URL, qi.ID), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("cancel of live session answered %d", cr.StatusCode)
	}
	resp := <-done
	if !errors.Is(resp.Err, exec.ErrQueryCancelled) {
		t.Fatalf("HTTP-cancelled session returned %v, want ErrQueryCancelled", resp.Err)
	}

	cr, err = srv.Client().Post(srv.URL+"/debug/queries/999999/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of unknown id answered %d, want 404", cr.StatusCode)
	}
	cr, err = srv.Client().Post(srv.URL+"/debug/queries/notanid/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusBadRequest {
		t.Errorf("cancel of malformed id answered %d, want 400", cr.StatusCode)
	}
}

// TestRegistryShardedProgress: a sharded session's registry row reports the
// fan-out — sharded flag, total shard count — after it finishes, and the
// coordinator's emitted count, which nothing else adds to.
func TestRegistryShardedProgress(t *testing.T) {
	cat := partitionedCatalog(t)
	eng := NewWithConfig(cat, Config{Shards: 2})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	resp := eng.Run(testRequests(1, false)[0])
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !resp.Sharded {
		t.Fatal("session did not run sharded")
	}
	qs := eng.Queries()
	if len(qs) != 1 {
		t.Fatalf("registry holds %d sessions, want 1", len(qs))
	}
	qi := qs[0]
	if !qi.Sharded || qi.ShardsTotal != 2 || qi.ShardsDone != qi.ShardsTotal-int32(qi.ShardsLive) {
		t.Errorf("sharded progress wrong: %+v", qi)
	}
	if qi.State != "done" || qi.Emitted == 0 || qi.Emitted != int64(len(resp.Tuples)) {
		t.Errorf("sharded session row wrong (%d rows): %+v", len(resp.Tuples), qi)
	}
}

// TestQueryRegistryStress is the -race workout: concurrent sessions,
// registry snapshots, and blind cancel-by-id sweeps race against each other,
// and afterwards the goroutine count settles back and the live map drains.
func TestQueryRegistryStress(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := heavyEngine(t, Config{MaxConcurrent: 4})
	if resp := eng.Run(Request{SQL: heavySQL, ExplainOnly: true}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	stop := make(chan struct{})
	var obs sync.WaitGroup
	// Snapshot and cancel sweepers race with the sessions below.
	for w := 0; w < 2; w++ {
		obs.Add(1)
		go func() {
			defer obs.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, qi := range eng.Queries() {
					if qi.State == "executing" || qi.State == "merging" {
						eng.CancelQuery(qi.ID)
					}
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := eng.Run(Request{
				ID: fmt.Sprintf("s%d", i), SQL: heavySQL,
				Deadline: time.Now().Add(time.Duration(20+i) * time.Millisecond),
			})
			if resp.Err != nil && !errors.Is(resp.Err, exec.ErrQueryCancelled) &&
				!errors.Is(resp.Err, exec.ErrDeadlineExceeded) {
				t.Errorf("s%d: unexpected error %v", i, resp.Err)
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	obs.Wait()
	// No session may remain live once every Run returned.
	for _, qi := range eng.Queries() {
		switch qi.State {
		case "done", "aborted":
		default:
			t.Errorf("session %d stuck in state %s", qi.ID, qi.State)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after stress", before, runtime.NumGoroutine())
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// promLint statically checks a Prometheus text exposition: every series
// belongs to a declared family, no family is declared twice, no series is
// duplicated, and histogram bucket counts are cumulative.
func promLint(t *testing.T, text string) {
	t.Helper()
	families := map[string]string{}
	series := map[string]bool{}
	var lastFamily string
	type bucketState struct {
		last    uint64
		lastKey string
	}
	buckets := map[string]*bucketState{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("line %d: malformed TYPE comment %q", ln+1, line)
				continue
			}
			name, kind := parts[2], parts[3]
			if _, dup := families[name]; dup {
				t.Errorf("line %d: family %s declared twice", ln+1, name)
			}
			families[name] = kind
			lastFamily = name
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("line %d: malformed sample %q", ln+1, line)
			continue
		}
		key := line[:sp]
		name := key
		if b := strings.IndexByte(key, '{'); b >= 0 {
			name = key[:b]
			if !strings.HasSuffix(key, "}") {
				t.Errorf("line %d: malformed labels in %q", ln+1, key)
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suffix) && families[strings.TrimSuffix(name, suffix)] == "histogram" {
				base = strings.TrimSuffix(name, suffix)
			}
		}
		if _, ok := families[base]; !ok {
			t.Errorf("line %d: series %s has no TYPE declaration", ln+1, name)
		}
		if base != lastFamily {
			t.Errorf("line %d: series %s appears under family %s", ln+1, name, lastFamily)
		}
		if series[key] {
			t.Errorf("line %d: duplicate series %q", ln+1, key)
		}
		series[key] = true
		if strings.HasSuffix(name, "_bucket") {
			// Cumulative within one labeled sub-histogram: group by the
			// labels minus le.
			group := key
			if i := strings.Index(group, "le="); i >= 0 {
				group = name + key[len(name):i]
			}
			var v uint64
			if _, err := fmt.Sscanf(line[sp+1:], "%d", &v); err != nil {
				t.Errorf("line %d: bucket count not an integer: %q", ln+1, line)
				continue
			}
			bs := buckets[group]
			if bs == nil {
				bs = &bucketState{}
				buckets[group] = bs
			}
			if v < bs.last {
				t.Errorf("line %d: bucket counts not cumulative (%s: %d after %d in %s)",
					ln+1, key, v, bs.last, bs.lastKey)
			}
			bs.last, bs.lastKey = v, key
		}
	}
}

// TestMetricsTextLints serves /metrics after mixed traffic — sharded,
// analyzed, greedy-fallback, errored — and lints the exposition: families
// declared once, no duplicate or orphan series, cumulative histograms, and
// the new labeled counter families present.
func TestMetricsTextLints(t *testing.T) {
	cat := partitionedCatalog(t)
	eng := NewWithConfig(cat, Config{Shards: 2, Options: core.Options{Planner: core.PlannerGreedy}})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	for _, r := range testRequests(4, true) {
		eng.Run(r)
	}
	areq := testRequests(1, false)[0]
	areq.Analyze = true
	if resp := eng.Run(areq); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	// A single-table query trips the greedy fallback taxonomy.
	if resp := eng.Run(Request{SQL: "SELECT * FROM T1 ORDER BY T1.score DESC LIMIT 3"}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	srv := httptest.NewServer(eng.DebugMux())
	defer srv.Close()
	hr, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	promLint(t, text)
	for _, want := range []string{
		`raqo_shard_fallbacks_total{reason="non_shardable"}`,
		`raqo_greedy_fallbacks_total{reason="single_table"} 1`,
		`raqo_operator_depth_bucket{op="HRJN",le="+Inf"}`,
		`raqo_operator_depth_bucket{op="ShardMerge",le="+Inf"}`,
		`raqo_operator_latency_seconds_count{op="ShardMerge"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

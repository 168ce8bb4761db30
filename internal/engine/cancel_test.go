package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/workload"
)

// heavyEngine serves a workload whose full execution takes well over a
// second: a low-selectivity 2-way ranked join drained completely (no LIMIT
// means no early-out), hundreds of thousands of result tuples through the
// ranking queue.
func heavyEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	cat, _ := workload.RankedSet(2, workload.RankedConfig{
		N: 30000, Selectivity: 0.001, Seed: 23,
	})
	return NewWithConfig(cat, cfg)
}

const heavySQL = "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC"

// TestDeadlineCutsLongQuery is the tentpole acceptance check: a 10ms
// deadline against a >1s workload returns a typed ErrDeadlineExceeded
// promptly, with the operator tree torn down (later queries still work).
func TestDeadlineCutsLongQuery(t *testing.T) {
	eng := heavyEngine(t, Config{})
	// Warm the plan cache so the measured latency is execution, not planning.
	if resp := eng.Run(Request{SQL: heavySQL, ExplainOnly: true}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	start := time.Now()
	resp := eng.Run(Request{ID: "dl", SQL: heavySQL, Deadline: time.Now().Add(10 * time.Millisecond)})
	elapsed := time.Since(start)
	if !errors.Is(resp.Err, exec.ErrDeadlineExceeded) {
		t.Fatalf("want ErrDeadlineExceeded, got %v", resp.Err)
	}
	// The acceptance bound is 50ms of overshoot; allow scheduler slack on
	// loaded CI machines (more under -race) while still catching any
	// non-prompt teardown.
	if elapsed > 250*time.Millisecond*promptSlack {
		t.Errorf("deadline overshoot: query returned after %v", elapsed)
	}
	t.Logf("10ms-deadline query returned in %v", elapsed)
	// The engine is fully usable afterwards.
	ok := eng.Run(Request{SQL: "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 3"})
	if ok.Err != nil {
		t.Fatalf("engine broken after deadline abort: %v", ok.Err)
	}
	if len(ok.Tuples) != 3 {
		t.Fatalf("got %d tuples after deadline abort, want 3", len(ok.Tuples))
	}
	m := eng.Snapshot()
	if m.QueriesDeadlined != 1 {
		t.Errorf("queries_deadline_exceeded = %d, want 1", m.QueriesDeadlined)
	}
}

// TestCancelMidQuery cancels the caller's context mid-execution and expects
// the typed cancellation error plus the matching metric.
func TestCancelMidQuery(t *testing.T) {
	eng := heavyEngine(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	resp := eng.RunCtx(ctx, Request{ID: "c", SQL: heavySQL})
	if !errors.Is(resp.Err, exec.ErrQueryCancelled) {
		t.Fatalf("want ErrQueryCancelled, got %v", resp.Err)
	}
	if m := eng.Snapshot(); m.QueriesCancelled != 1 {
		t.Errorf("queries_cancelled = %d, want 1", m.QueriesCancelled)
	}
}

// TestBudgetLimitStopsQuery bounds the buffered tuples instead of the time:
// the heavy query trips the budget and reports it distinctly from deadlines.
func TestBudgetLimitStopsQuery(t *testing.T) {
	eng := heavyEngine(t, Config{})
	resp := eng.Run(Request{
		SQL:    heavySQL,
		Limits: exec.ResourceLimits{MaxBufferedTuples: 5000},
	})
	if !errors.Is(resp.Err, exec.ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", resp.Err)
	}
	if m := eng.Snapshot(); m.QueriesOverBudget != 1 {
		t.Errorf("queries_over_budget = %d, want 1", m.QueriesOverBudget)
	}
}

// TestDefaultLimitsApply: engine-wide default limits govern requests that
// carry none of their own, and a request's own limits replace them.
func TestDefaultLimitsApply(t *testing.T) {
	eng := heavyEngine(t, Config{
		DefaultLimits: exec.ResourceLimits{MaxBufferedTuples: 5000},
	})
	if resp := eng.Run(Request{SQL: heavySQL}); !errors.Is(resp.Err, exec.ErrBudgetExceeded) {
		t.Fatalf("default limits not applied: %v", resp.Err)
	}
	// A generous per-request budget overrides the strict default.
	resp := eng.Run(Request{
		SQL:    "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5",
		Limits: exec.ResourceLimits{MaxBufferedTuples: 1 << 22},
	})
	if resp.Err != nil {
		t.Fatalf("per-request limits must replace defaults: %v", resp.Err)
	}
}

// TestAdmissionDeadlineComposition: the query deadline starts at submit, not
// at dequeue — a session queued behind a saturated engine expires with
// ErrDeadlineExceeded while still waiting.
func TestAdmissionDeadlineComposition(t *testing.T) {
	eng := heavyEngine(t, Config{MaxConcurrent: 1})
	if resp := eng.Run(Request{SQL: heavySQL, ExplainOnly: true}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	// Occupy the only slot with a long query we cancel at the end.
	holdCtx, holdCancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		eng.RunCtx(holdCtx, Request{ID: "hold", SQL: heavySQL})
	}()
	<-started
	time.Sleep(30 * time.Millisecond) // let the holder pass admission
	start := time.Now()
	resp := eng.Run(Request{ID: "queued", SQL: heavySQL, Deadline: time.Now().Add(25 * time.Millisecond)})
	elapsed := time.Since(start)
	if !errors.Is(resp.Err, exec.ErrDeadlineExceeded) {
		t.Fatalf("queued query must expire on its own deadline, got %v", resp.Err)
	}
	if elapsed > 500*time.Millisecond*promptSlack {
		t.Errorf("queued expiry took %v", elapsed)
	}
	holdCancel()
	wg.Wait()
}

// TestAdmissionTimeout: with no query deadline, the engine's admission
// timeout bounds the queue wait with its own typed error and metric.
func TestAdmissionTimeout(t *testing.T) {
	eng := heavyEngine(t, Config{MaxConcurrent: 1, AdmissionTimeout: 30 * time.Millisecond})
	if resp := eng.Run(Request{SQL: heavySQL, ExplainOnly: true}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	holdCtx, holdCancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		eng.RunCtx(holdCtx, Request{ID: "hold", SQL: heavySQL})
	}()
	time.Sleep(30 * time.Millisecond)
	resp := eng.Run(Request{ID: "queued", SQL: heavySQL})
	if !errors.Is(resp.Err, ErrAdmissionTimeout) {
		t.Fatalf("want ErrAdmissionTimeout, got %v", resp.Err)
	}
	holdCancel()
	wg.Wait()
	if m := eng.Snapshot(); m.AdmissionTimeouts != 1 {
		t.Errorf("admission_timeouts = %d, want 1", m.AdmissionTimeouts)
	}
}

// TestConcurrentCancelNoLeaks is the -race stress: many concurrent sessions,
// half cancelled mid-flight, half under deadlines — afterwards the goroutine
// count settles back (no leaked workers or stuck sessions).
func TestConcurrentCancelNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	eng := heavyEngine(t, Config{MaxConcurrent: 4})
	if resp := eng.Run(Request{SQL: heavySQL, ExplainOnly: true}); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if i%2 == 0 {
				go func() {
					time.Sleep(time.Duration(5+i) * time.Millisecond)
					cancel()
				}()
				resp := eng.RunCtx(ctx, Request{ID: fmt.Sprintf("g%d", i), SQL: heavySQL})
				if resp.Err != nil && !errors.Is(resp.Err, exec.ErrQueryCancelled) {
					t.Errorf("g%d: unexpected error %v", i, resp.Err)
				}
			} else {
				resp := eng.RunCtx(ctx, Request{
					ID: fmt.Sprintf("g%d", i), SQL: heavySQL,
					Deadline: time.Now().Add(time.Duration(10+i) * time.Millisecond),
				})
				if resp.Err != nil && !errors.Is(resp.Err, exec.ErrDeadlineExceeded) &&
					!errors.Is(resp.Err, exec.ErrQueryCancelled) {
					t.Errorf("g%d: unexpected error %v", i, resp.Err)
				}
			}
		}(i)
	}
	wg.Wait()
	// Goroutines wind down asynchronously; retry before declaring a leak.
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after stress", before, after)
		}
		time.Sleep(25 * time.Millisecond)
	}
	m := eng.Snapshot()
	if m.AdmissionWaiting != 0 {
		t.Errorf("admission_waiting gauge stuck at %d", m.AdmissionWaiting)
	}
	if m.InFlight != 0 {
		t.Errorf("in_flight gauge stuck at %d", m.InFlight)
	}
}

// TestLimitsDisabledPathUnchanged: with no limits anywhere the engine takes
// the nil-budget path and produces identical results to a budgeted run —
// the zero-cost-when-off contract.
func TestLimitsDisabledPathUnchanged(t *testing.T) {
	eng := testEngine(t, core.Options{})
	sql := testRequests(1, false)[0].SQL
	plain := eng.Run(Request{SQL: sql})
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	limited := eng.Run(Request{SQL: sql, Limits: exec.ResourceLimits{MaxBufferedTuples: 1 << 22}})
	if limited.Err != nil {
		t.Fatal(limited.Err)
	}
	if len(plain.Tuples) != len(limited.Tuples) {
		t.Fatalf("limits changed the result: %d vs %d tuples", len(plain.Tuples), len(limited.Tuples))
	}
	for i := range plain.Tuples {
		for c := range plain.Tuples[i] {
			if !plain.Tuples[i][c].Equal(limited.Tuples[i][c]) {
				t.Fatalf("tuple %d column %d differs with limits on", i, c)
			}
		}
	}
}

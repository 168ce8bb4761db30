package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/workload"
)

func testEngine(t *testing.T, opts core.Options) *Engine {
	t.Helper()
	cat, _ := workload.RankedSet(3, workload.RankedConfig{
		N: 2000, Selectivity: 0.01, Seed: 11,
	})
	return New(cat, opts)
}

// testRequests builds a mixed batch: 2-way and 3-way ranked joins with
// varying k, plus deliberately broken queries to exercise error capture.
func testRequests(n int, withErrors bool) []Request {
	shapes := []string{
		"SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT %d",
		"SELECT * FROM T2, T3 WHERE T2.key = T3.key ORDER BY T2.score + T3.score DESC LIMIT %d",
		"SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + T2.score + T3.score DESC LIMIT %d",
	}
	reqs := make([]Request, n)
	for i := range reqs {
		sql := fmt.Sprintf(shapes[i%len(shapes)], 3+i%5)
		if withErrors && i%7 == 3 {
			sql = "SELECT FROM WHERE" // parse error
		}
		reqs[i] = Request{ID: fmt.Sprintf("q%d", i), SQL: sql}
	}
	return reqs
}

// TestRunSession checks one full session end to end: results arrive in
// descending combined-score order, stats cover the plan's rank joins, and
// the optimizer counters are populated.
func TestRunSession(t *testing.T) {
	eng := testEngine(t, core.Options{})
	resp := eng.Run(Request{ID: "s1", SQL: testRequests(1, false)[0].SQL})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if len(resp.Tuples) == 0 {
		t.Fatal("no results")
	}
	if resp.PlansGenerated == 0 || resp.PlansKept == 0 {
		t.Errorf("optimizer counters empty: generated=%d kept=%d", resp.PlansGenerated, resp.PlansKept)
	}
	if len(resp.Columns) != len(resp.Tuples[0]) {
		t.Errorf("%d columns for %d-wide tuples", len(resp.Columns), len(resp.Tuples[0]))
	}
	for _, rj := range resp.RankJoins {
		if rj.Stats.LeftDepth == 0 && rj.Stats.RightDepth == 0 {
			t.Errorf("rank join %s(%s) reports zero depths", rj.Op, rj.Pred)
		}
	}
}

// TestRunCapturesErrors: malformed queries must surface in Response.Err, not
// crash the worker or poison neighboring sessions.
func TestRunCapturesErrors(t *testing.T) {
	eng := testEngine(t, core.Options{})
	for _, sql := range []string{
		"SELECT FROM WHERE",
		"SELECT * FROM NoSuchTable ORDER BY NoSuchTable.score DESC LIMIT 5",
	} {
		resp := eng.Run(Request{SQL: sql})
		if resp.Err == nil {
			t.Errorf("%q: error not captured", sql)
		}
	}
}

// runAll runs the requests over the given number of concurrent session
// workers and returns the responses in request order.
func runAll(eng *Engine, reqs []Request, workers int) []Response {
	out := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(reqs); i += workers {
				out[i] = eng.Run(reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// stripElapsed zeroes the fields that legitimately vary between runs —
// wall-clock time, the session-private plan pointer, and whether the plan
// cache happened to be warm — so concurrent and sequential responses
// compare equal on what matters: tuples, columns, stats, and errors.
func stripElapsed(rs []Response) []Response {
	out := append([]Response(nil), rs...)
	for i := range out {
		out[i].Elapsed = 0
		out[i].Plan = nil
		out[i].CacheHit = false
	}
	return out
}

// TestConcurrentSessionsMatchSequential is the PR's headline race test: at
// least 8 workers run a mixed batch (including failing queries) over one
// shared catalog, and every response — tuples, stats, errors — must match
// the sequential run. Run under -race this doubles as the data-race check
// on the shared catalog, B+trees, and per-session optimizer state.
func TestConcurrentSessionsMatchSequential(t *testing.T) {
	eng := testEngine(t, core.Options{})
	reqs := testRequests(24, true)
	want := stripElapsed(runAll(eng, reqs, 1))
	for _, workers := range []int{2, 8, 16} {
		got := stripElapsed(runAll(eng, reqs, workers))
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d responses, want %d", workers, len(got), len(want))
		}
		for i := range got {
			// Errors carry no stable identity; compare presence and text.
			ge, we := got[i].Err, want[i].Err
			if (ge == nil) != (we == nil) || (ge != nil && ge.Error() != we.Error()) {
				t.Errorf("workers=%d %s: err %v, want %v", workers, reqs[i].ID, ge, we)
				continue
			}
			g, w := got[i], want[i]
			g.Err, w.Err = nil, nil
			if !reflect.DeepEqual(g, w) {
				t.Errorf("workers=%d %s: response diverged from sequential run", workers, reqs[i].ID)
			}
		}
	}
}

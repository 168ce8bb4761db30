package engine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/trace"
	"rankopt/internal/workload"
)

func cacheTestCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, _ := workload.RankedSet(3, workload.RankedConfig{
		N: 2000, Selectivity: 0.01, Seed: 11,
	})
	return cat
}

const cacheTestSQL = "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5"

// TestCacheHitOnRepeat: the second run of identical SQL must hit the cache,
// and the counters must record exactly one miss.
func TestCacheHitOnRepeat(t *testing.T) {
	eng := New(cacheTestCatalog(t), core.Options{})
	first := eng.Run(Request{SQL: cacheTestSQL})
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Error("first run reported a cache hit on an empty cache")
	}
	second := eng.Run(Request{SQL: cacheTestSQL})
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Error("second run of identical SQL missed the cache")
	}
	if !reflect.DeepEqual(first.Tuples, second.Tuples) {
		t.Error("cached run produced different tuples")
	}
	st := eng.CacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestUnknownColumnNotCached: a query naming a column its table lacks fails
// at optimize, naming the column, on every run, and never becomes a cached
// template that fails again at every execution.
func TestUnknownColumnNotCached(t *testing.T) {
	eng := New(cacheTestCatalog(t), core.Options{})
	const sql = "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.nosuch + T2.score DESC LIMIT 3"
	for run := 1; run <= 2; run++ {
		resp := eng.Run(Request{SQL: sql})
		if resp.Err == nil || !strings.Contains(resp.Err.Error(), "engine: optimize") ||
			!strings.Contains(resp.Err.Error(), "T1.nosuch") {
			t.Fatalf("run %d: err = %v, want an optimize error naming T1.nosuch", run, resp.Err)
		}
	}
	if st := eng.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries, want 0", st.Entries)
	}
}

// TestCacheHitAcrossSpellings: lexically different spellings of one query —
// whitespace, keyword case, a different LIMIT — normalize to one fingerprint
// and share a template.
func TestCacheHitAcrossSpellings(t *testing.T) {
	eng := New(cacheTestCatalog(t), core.Options{})
	if r := eng.Run(Request{SQL: cacheTestSQL}); r.Err != nil {
		t.Fatal(r.Err)
	}
	variants := []string{
		"select * from T1, T2 where T1.key = T2.key order by T1.score + T2.score desc limit 5",
		"SELECT  *  FROM T1,  T2  WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5",
		"SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 9",
	}
	for _, sql := range variants {
		r := eng.Run(Request{SQL: sql})
		if r.Err != nil {
			t.Fatalf("%q: %v", sql, r.Err)
		}
		if !r.CacheHit {
			t.Errorf("%q: missed the cache despite matching fingerprint", sql)
		}
	}
	if st := eng.CacheStats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 shared template", st.Entries)
	}
}

// TestCacheRebindsK: a template cached at one k must serve a different k
// with the correct (exactly k) result count.
func TestCacheRebindsK(t *testing.T) {
	eng := New(cacheTestCatalog(t), core.Options{})
	shape := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT %d"
	if r := eng.Run(Request{SQL: fmt.Sprintf(shape, 5)}); r.Err != nil || len(r.Tuples) != 5 {
		t.Fatalf("k=5 seed run: err=%v rows=%d", r.Err, len(r.Tuples))
	}
	r := eng.Run(Request{SQL: fmt.Sprintf(shape, 12)})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if !r.CacheHit {
		t.Error("k=12 run missed the cache (k should be parameterized out)")
	}
	if len(r.Tuples) != 12 {
		t.Errorf("k=12 run returned %d rows", len(r.Tuples))
	}
}

// TestCacheDistinctQueriesMiss: different predicates or table sets must not
// collide.
func TestCacheDistinctQueriesMiss(t *testing.T) {
	eng := New(cacheTestCatalog(t), core.Options{})
	queries := []string{
		cacheTestSQL,
		"SELECT * FROM T2, T3 WHERE T2.key = T3.key ORDER BY T2.score + T3.score DESC LIMIT 5",
		"SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + T2.score + T3.score DESC LIMIT 5",
	}
	for _, sql := range queries {
		if r := eng.Run(Request{SQL: sql}); r.Err != nil {
			t.Fatal(r.Err)
		} else if r.CacheHit {
			t.Errorf("%q: unexpected cache hit", sql)
		}
	}
	if st := eng.CacheStats(); st.Entries != len(queries) || st.Misses != uint64(len(queries)) {
		t.Errorf("stats = %+v, want %d entries and misses", st, len(queries))
	}
}

// TestCacheInvalidatedByStatsEpoch: any catalog statistics change must make
// the next lookup miss and replan — a stale plan reflects dead statistics.
func TestCacheInvalidatedByStatsEpoch(t *testing.T) {
	cat := cacheTestCatalog(t)
	eng := New(cat, core.Options{})
	if r := eng.Run(Request{SQL: cacheTestSQL}); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := eng.Run(Request{SQL: cacheTestSQL}); !r.CacheHit {
		t.Fatal("warm-up hit expected")
	}
	before := cat.StatsEpoch()
	if err := cat.RefreshStats("T1"); err != nil {
		t.Fatal(err)
	}
	if cat.StatsEpoch() == before {
		t.Fatal("RefreshStats did not bump the stats epoch")
	}
	r := eng.Run(Request{SQL: cacheTestSQL})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.CacheHit {
		t.Error("cache hit across a stats-epoch bump: stale plan served")
	}
	st := eng.CacheStats()
	if st.Invalidations == 0 {
		t.Error("invalidation counter did not move")
	}
	// The replanned entry is valid again under the new epoch.
	if r := eng.Run(Request{SQL: cacheTestSQL}); !r.CacheHit {
		t.Error("re-cached plan missed after replanning under the new epoch")
	}
}

// TestCachedPlanIdentity is the acceptance check that the three ways into the
// planner are semantically invisible: for every query shape, a cache-disabled
// engine, a warm cache-enabled engine, and a traced session (which bypasses
// the warm cache to re-optimize under the decision tracer) must produce the
// identical Explain string, tuples, fingerprint, and optimizer counters.
func TestCachedPlanIdentity(t *testing.T) {
	cat := cacheTestCatalog(t)
	cold := NewWithConfig(cat, Config{DisablePlanCache: true})
	warm := New(cat, core.Options{})
	queries := []string{
		cacheTestSQL,
		"SELECT * FROM T2, T3 WHERE T2.key = T3.key ORDER BY T2.score + T3.score DESC LIMIT 7",
		"SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + T2.score + T3.score DESC LIMIT 4",
	}
	// Prime the warm engine so the compared runs are true cache hits.
	for _, sql := range queries {
		if r := warm.Run(Request{SQL: sql}); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	type outcome struct {
		explain, fingerprint          string
		generated, kept, pruned, prot int
	}
	outcomeOf := func(r Response) outcome {
		return outcome{plan.Explain(r.Plan), r.Fingerprint,
			r.PlansGenerated, r.PlansKept, r.PlansPruned, r.PlansProtected}
	}
	for _, sql := range queries {
		cr := cold.Run(Request{SQL: sql})
		wr := warm.Run(Request{SQL: sql})
		tr := trace.New(sql)
		xr := warm.Run(Request{SQL: sql, Trace: tr})
		if cr.Err != nil || wr.Err != nil || xr.Err != nil {
			t.Fatalf("%q: cold err=%v warm err=%v traced err=%v", sql, cr.Err, wr.Err, xr.Err)
		}
		if cr.CacheHit || xr.CacheHit {
			t.Errorf("%q: cache-disabled or traced session reported a hit", sql)
		}
		if !wr.CacheHit {
			t.Errorf("%q: warm engine missed", sql)
		}
		if xr.OptTrace == nil {
			t.Errorf("%q: traced session on a warm cache returned no decision trace", sql)
		}
		if !strings.Contains(tr.Tree(), "would_hit=true") {
			t.Errorf("%q: traced session on a warm cache did not record would_hit=true:\n%s", sql, tr.Tree())
		}
		co := outcomeOf(cr)
		for name, r := range map[string]Response{"warm": wr, "traced": xr} {
			if o := outcomeOf(r); o != co {
				t.Errorf("%q: %s run diverges from cold\ncold: %+v\n%s: %+v", sql, name, co, name, o)
			}
			if !reflect.DeepEqual(cr.Tuples, r.Tuples) {
				t.Errorf("%q: tuples diverge between cold and %s runs", sql, name)
			}
		}
	}
	// Traced sessions count as neither hit nor miss, and invalidate nothing.
	n := uint64(len(queries))
	if st := warm.CacheStats(); st.Hits != n || st.Misses != n || st.Invalidations != 0 || st.Entries != len(queries) {
		t.Errorf("warm cache stats = %+v, want %d hits, %d misses, 0 invalidations, %d entries", st, n, n, len(queries))
	}
	if st := cold.CacheStats(); st != (CacheStats{}) {
		t.Errorf("cache-disabled engine counted %+v", st)
	}
	// A traced session on an empty cache still stores its template.
	fresh := New(cat, core.Options{})
	if r := fresh.Run(Request{SQL: cacheTestSQL, Trace: trace.New(cacheTestSQL)}); r.Err != nil {
		t.Fatal(r.Err)
	}
	if r := fresh.Run(Request{SQL: cacheTestSQL}); !r.CacheHit {
		t.Error("untraced rerun after a traced session missed the plan cache")
	}
}

// TestCacheConcurrentHammer drives one cache from 8 goroutines with a 50%
// repeated-query mix. Run under -race this is the cache's data-race check;
// in any mode it verifies every response is well-formed and the hit/miss
// counters account for every session.
func TestCacheConcurrentHammer(t *testing.T) {
	eng := New(cacheTestCatalog(t), core.Options{})
	shapes := []string{
		"SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT %d",
		"SELECT * FROM T2, T3 WHERE T2.key = T3.key ORDER BY T2.score + T3.score DESC LIMIT %d",
	}
	const goroutines = 8
	const perG = 32
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// 50% of sessions repeat one hot query verbatim; the rest
				// rotate shapes and k values.
				sql := fmt.Sprintf(shapes[0], 5)
				if i%2 == 1 {
					sql = fmt.Sprintf(shapes[(g+i)%len(shapes)], 3+(g*perG+i)%6)
				}
				r := eng.Run(Request{SQL: sql})
				if r.Err != nil {
					errs <- fmt.Errorf("g%d i%d: %w", g, i, r.Err)
					return
				}
				if len(r.Tuples) == 0 {
					errs <- fmt.Errorf("g%d i%d: empty result", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := eng.CacheStats()
	if st.Hits+st.Misses != goroutines*perG {
		t.Errorf("hits(%d)+misses(%d) != %d sessions", st.Hits, st.Misses, goroutines*perG)
	}
	if st.Hits < goroutines*perG/2 {
		t.Errorf("only %d hits on a 50%% repeated workload", st.Hits)
	}
}

package engine

import (
	"fmt"
	"runtime/debug"
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/workload"
)

// TestRankJoinSessionAllocs pins what one warm session allocates on the
// benchmark's four catalogs. A warm session takes a compiled tree from its
// template and hands it back, so it allocates no operator, schema, bound
// evaluator, plan copy or drain batch. Every rank operator whose parent
// copies its rows (RankAssign, a parent HRJN) carves them from pooled
// chunks, so no released row is an object of its own either; what is left
// is the answer rows' arena chunk, the Response, its rank-join stats and the
// registry entry.
//
// On plan-churn's (four 1 500-row tables, selectivity 0.01) a tree of rank
// joins over index-walking Sorts digs ~1 400 tuples deep to return 25 rows
// (the 3-way shape, and the 4-way one on a template first planned at
// k = 10; planned cold at k = 25 the 4-way shape is an AnyK). The rank
// joins queue their candidates as row references and build a row only
// when it is released, so the count does not follow the thousands of
// combinations queued and dropped at Close. Building every queued candidate
// cost 2 586 objects on the 4-way shape and 3 024 on the 3-way one;
// allocating each join's hash tables per request, 825 on the 4-way shape;
// compiling a tree per request, 730 and 521; one fresh object per released
// row, 524 and 394. Each rank operator takes its queue's array from the
// size class its last run's queue reached, so a warm session neither
// allocates a queue nor regrows one, however deep it digs: the 4-way
// shape's queues pass 1 024 items at k = 50, and when the pool dropped
// every array past that size at Close the 3-way session cost 36 objects
// and the 4-way one at k = 50 39.
//
// On point-topk's (three 20 000-row tables, selectivity 0.002) one HRJN over
// two index scans returns 10 rows after a shallow pull, so the session's
// fixed cost is all there is: allocating the HRJN's hash tables per request
// cost 121 objects, compiling a tree per request 91, and a fresh object per
// released row 20. Its weighted shape reads one input through a Sort that
// walks the score index. Both read scores and join keys from the column
// images the inputs bind at Open, which allocates nothing: the weighted
// shape is pinned at the 10 objects it took when every input was read on
// the tuple path.
//
// On sharded-skew's (two 16 000-row tables range-partitioned on their 400
// keys into 4 shards, one running at a time) the top shard runs and three
// are pruned; compiling the running shard's tree per request cost 150, a
// fresh object per row its rank join released and its RankAssign.Next
// answered with 56, and a fresh batch for the gather to drain into 2. The
// gather copies each row it keeps, so the RankAssign carves its rows from
// pooled chunks it recycles at its Close, which the gather calls on the
// shard's done message; the gather keeps its per-shard state in one array
// and replays its winners from its heap: the session cost 38 objects before,
// and 30 while the shard bounds took a struct and two slices of their own.
// The template pools whole sharded trees — merge, shard pipelines, gather
// scaffolding — and the gather stops its shard without a context of its
// own: rebuilding that scaffolding per session cost 28.
//
// On deep-dig's (the 5 000-object multimedia corpus) AnyK drains three
// features and enumerates 10 answers; a fresh object per row it released
// cost 18.
func TestRankJoinSessionAllocs(t *testing.T) {
	churn, _ := workload.RankedSet(4, workload.RankedConfig{N: 1500, Selectivity: 0.01, Seed: 2004})
	point, _ := workload.RankedSet(3, workload.RankedConfig{N: 20000, Selectivity: 0.002, Seed: 2004})
	churnEng, pointEng := New(churn, core.Options{}), New(point, core.Options{})
	skewEng := NewWithConfig(skewedShardCatalog(t, 16000, 400), Config{Shards: 4, ShardWidth: 1})
	corpus, _ := workload.Corpus(workload.CorpusConfig{Objects: 5000, Features: 4, Seed: 2004})
	digEng := New(corpus, core.Options{})
	for _, tc := range []struct {
		name  string
		eng   *Engine
		sql   string
		rows  int
		bound float64
		// first, when set, is the request that plans the template, and some
		// rank join's queue must pass queue items.
		first string
		queue int
	}{
		{"4-way", churnEng, fmt.Sprintf(churn4SQL, 25), 25, 15, "", 0},
		{"4-way-k50", New(churn, core.Options{}), fmt.Sprintf(churn4SQL, 50), 50, 15, fmt.Sprintf(churn4SQL, 10), 1 << 10},
		{"3-way", churnEng, "SELECT * FROM T2, T3, T4 WHERE T2.key = T3.key AND T3.key = T4.key " +
			"ORDER BY 0.6*T2.score + 0.1*T3.score + 0.3*T4.score DESC LIMIT 25", 25, 13, "", 0},
		{"point-topk", pointEng, "SELECT * FROM T1, T2 WHERE T1.key = T2.key " +
			"ORDER BY T1.score + T2.score DESC LIMIT 10", 10, 11, "", 0},
		{"point-topk-weighted", pointEng, "SELECT * FROM T1, T2 WHERE T1.key = T2.key " +
			"ORDER BY 0.3*T1.score + 0.7*T2.score DESC LIMIT 10", 10, 10, "", 0},
		{"sharded-skew", skewEng, skewedShardSQL, 10, 11, "", 0},
		{"deep-dig", digEng, fmt.Sprintf(deepDigSQL, 10), 10, 9, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.first != "" {
				tc.eng.Run(Request{SQL: tc.first})
			}
			req := Request{SQL: tc.sql}
			resp := tc.eng.Run(req) // warm the plan cache
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			ranked := len(resp.RankJoins) > 0 || resp.Plan.CountOps(plan.OpAnyK) > 0
			if len(resp.Tuples) != tc.rows || ranked == resp.Sharded {
				t.Fatalf("%d rows over %d rank joins (sharded %v), want %d rows over a rank join or AnyK", len(resp.Tuples), len(resp.RankJoins), resp.Sharded, tc.rows)
			}
			if q := maxQueue(resp); tc.queue > 0 && q <= tc.queue {
				t.Fatalf("the deepest rank-join queue holds %d items, want a shape whose queue passes %d", q, tc.queue)
			}
			if raceBuild {
				t.Skip("allocation counts are only stable outside -race")
			}
			// A collection during the measurement empties the sync.Pools a
			// warm session draws its hash tables, queues and sort buffers
			// from, and the session that refills them is charged for it: the
			// 4-way count read 525 in about one run of 15. With the collector
			// paused, every run measures the steady state.
			gc := debug.SetGCPercent(-1)
			got := testing.AllocsPerRun(20, func() { tc.eng.Run(req) })
			debug.SetGCPercent(gc)
			t.Logf("%s session: %.0f allocs", tc.name, got)
			if got > tc.bound {
				t.Errorf("%s session allocates %.0f objects, want <= %.0f", tc.name, got, tc.bound)
			}
		})
	}
}

// churn4SQL is plan-churn's 4-way shape on its catalog, at LIMIT %d.
const churn4SQL = "SELECT * FROM T1, T2, T3, T4 WHERE T1.key = T2.key AND T2.key = T3.key AND T3.key = T4.key " +
	"ORDER BY 0.1*T1.score + 0.2*T2.score + 0.3*T3.score + 0.4*T4.score DESC LIMIT %d"

// maxQueue is the largest queue high-water mark among resp's rank joins.
func maxQueue(resp Response) int {
	m := 0
	for _, rj := range resp.RankJoins {
		m = max(m, rj.Stats.MaxQueue)
	}
	return m
}

// deepDigSQL is deep-dig's 3-feature shape, which the planner runs with AnyK
// on the 5 000-object corpus, at LIMIT %d.
const deepDigSQL = "SELECT * FROM ColorLayout, Texture, Edges WHERE ColorLayout.id = Texture.id AND Texture.id = Edges.id " +
	"ORDER BY ColorLayout.score + Texture.score + Edges.score DESC LIMIT %d"

// TestSessionAllocsIndependentOfK checks that a warm session's allocation
// count does not follow k: a tree of HRJNs on plan-churn's catalog and AnyK
// on deep-dig's allocate the same at k = 10 and k = 100. Every row a rank
// operator releases below the root comes from the pooled release chunks and
// the root's rows from one arena chunk, so one object per released row — ten
// times as many at k = 100 — fails it. The HRJN shape is plan-churn's 4-way
// one, whose queues dig deeper as k grows: a warm operator takes its queue
// from the size class its last run reached, so a deeper dig allocates no
// more objects than a shallow one.
func TestSessionAllocsIndependentOfK(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts are only stable outside -race")
	}
	churn, _ := workload.RankedSet(4, workload.RankedConfig{N: 1500, Selectivity: 0.01, Seed: 2004})
	corpus, _ := workload.Corpus(workload.CorpusConfig{Objects: 5000, Features: 4, Seed: 2004})
	for _, tc := range []struct {
		name string
		eng  *Engine
		sql  string // with %d for the LIMIT
		// The plan must hold at least ops operators of type op.
		op  plan.OpType
		ops int
	}{
		{"hrjn-tree", New(churn, core.Options{}), churn4SQL, plan.OpHRJN, 2},
		{"anyk", New(corpus, core.Options{}), deepDigSQL, plan.OpAnyK, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var allocs [2]float64
			for i, k := range []int{10, 100} {
				req := Request{SQL: fmt.Sprintf(tc.sql, k)}
				resp := tc.eng.Run(req)
				if resp.Err != nil || len(resp.Tuples) != k {
					t.Fatalf("k=%d: %d rows, %v", k, len(resp.Tuples), resp.Err)
				}
				if resp.Plan.CountOps(tc.op) < tc.ops {
					t.Fatalf("planned with fewer than %d %v:\n%s", tc.ops, tc.op, plan.Explain(resp.Plan))
				}
				gc := debug.SetGCPercent(-1)
				allocs[i] = testing.AllocsPerRun(10, func() { tc.eng.Run(req) })
				debug.SetGCPercent(gc)
			}
			t.Logf("%s session: %.0f allocs at k=10, %.0f at k=100", tc.name, allocs[0], allocs[1])
			if allocs[1] != allocs[0] {
				t.Errorf("a session allocates %.0f objects at k=100 and %.0f at k=10, want the same", allocs[1], allocs[0])
			}
		})
	}
}

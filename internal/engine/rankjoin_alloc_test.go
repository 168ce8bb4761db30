package engine

import (
	"runtime/debug"
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/workload"
)

// TestRankJoinSessionAllocs pins what one warm session allocates on three of
// the benchmark's catalogs. A warm session takes a compiled tree from its
// template and hands it back, so it allocates no operator, schema, bound
// evaluator, plan copy or drain batch; what is left is its rows, its
// Response and its registry entry.
//
// On plan-churn's (four 1 500-row tables, selectivity 0.01) a tree of rank
// joins over Sort enforcers digs ~1 400 tuples deep to return 25 rows. The
// rank joins queue their candidates as row references and build a row only
// when it is released, so the count follows the rows that leave each join,
// not the thousands of combinations queued and dropped at Close. Building
// every queued candidate cost 2 586 objects on the 4-way shape and 3 024 on
// the 3-way one; allocating each join's hash tables per request, 825 on the
// 4-way shape; compiling a tree per request, 730 and 521.
//
// On point-topk's (three 20 000-row tables, selectivity 0.002) one HRJN over
// two index scans returns 10 rows after a shallow pull, so the session's
// fixed cost is all there is: allocating the HRJN's hash tables per request
// cost 121 objects, and compiling a tree per request 91.
//
// On sharded-skew's (two 16 000-row tables range-partitioned on their 400
// keys into 4 shards, one running at a time) the top shard runs and three
// are pruned; compiling the running shard's tree per request cost 150.
func TestRankJoinSessionAllocs(t *testing.T) {
	churn, _ := workload.RankedSet(4, workload.RankedConfig{N: 1500, Selectivity: 0.01, Seed: 2004})
	point, _ := workload.RankedSet(3, workload.RankedConfig{N: 20000, Selectivity: 0.002, Seed: 2004})
	churnEng, pointEng := New(churn, core.Options{}), New(point, core.Options{})
	skewEng := NewWithConfig(skewedShardCatalog(t, 16000, 400), Config{Shards: 4, ShardWidth: 1})
	for _, tc := range []struct {
		name  string
		eng   *Engine
		sql   string
		rows  int
		bound float64
	}{
		{"4-way", churnEng, "SELECT * FROM T1, T2, T3, T4 WHERE T1.key = T2.key AND T2.key = T3.key AND T3.key = T4.key " +
			"ORDER BY 0.1*T1.score + 0.2*T2.score + 0.3*T3.score + 0.4*T4.score DESC LIMIT 25", 25, 524},
		{"3-way", churnEng, "SELECT * FROM T2, T3, T4 WHERE T2.key = T3.key AND T3.key = T4.key " +
			"ORDER BY 0.6*T2.score + 0.1*T3.score + 0.3*T4.score DESC LIMIT 25", 25, 394},
		{"point-topk", pointEng, "SELECT * FROM T1, T2 WHERE T1.key = T2.key " +
			"ORDER BY T1.score + T2.score DESC LIMIT 10", 10, 20},
		{"sharded-skew", skewEng, skewedShardSQL, 10, 56},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := Request{SQL: tc.sql}
			resp := tc.eng.Run(req) // warm the plan cache
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if len(resp.Tuples) != tc.rows || (len(resp.RankJoins) == 0) != resp.Sharded {
				t.Fatalf("%d rows over %d rank joins (sharded %v), want %d rows over a rank join", len(resp.Tuples), len(resp.RankJoins), resp.Sharded, tc.rows)
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

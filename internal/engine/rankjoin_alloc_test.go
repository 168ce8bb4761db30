package engine

import (
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/workload"
)

// TestRankJoinSessionAllocs pins what one warm session allocates on the
// benchmark's plan-churn catalog (four 1 500-row tables, selectivity 0.01):
// a tree of rank joins over Sort enforcers that digs ~1 400 tuples deep to
// return 25 rows. The rank joins queue their candidates as row references and
// build a row only when it is released, so the count follows the rows that
// leave each join, not the thousands of combinations queued and dropped at
// Close. Building every queued candidate cost 2 586 objects on the 4-way shape
// and 3 024 on the 3-way one.
func TestRankJoinSessionAllocs(t *testing.T) {
	cat, _ := workload.RankedSet(4, workload.RankedConfig{N: 1500, Selectivity: 0.01, Seed: 2004})
	eng := New(cat, core.Options{})
	for _, tc := range []struct{ name, sql string }{
		{"4-way", "SELECT * FROM T1, T2, T3, T4 WHERE T1.key = T2.key AND T2.key = T3.key AND T3.key = T4.key " +
			"ORDER BY 0.1*T1.score + 0.2*T2.score + 0.3*T3.score + 0.4*T4.score DESC LIMIT 25"},
		{"3-way", "SELECT * FROM T2, T3, T4 WHERE T2.key = T3.key AND T3.key = T4.key " +
			"ORDER BY 0.6*T2.score + 0.1*T3.score + 0.3*T4.score DESC LIMIT 25"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := Request{SQL: tc.sql}
			resp := eng.Run(req) // warm the plan cache
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			if len(resp.Tuples) != 25 || len(resp.RankJoins) == 0 {
				t.Fatalf("%d rows over %d rank joins, want 25 rows over a rank join", len(resp.Tuples), len(resp.RankJoins))
			}
			if raceBuild {
				t.Skip("allocation counts are only stable outside -race")
			}
			const bound = 1000
			got := testing.AllocsPerRun(20, func() { eng.Run(req) })
			t.Logf("%s session: %.0f allocs", tc.name, got)
			if got > bound {
				t.Errorf("%s session allocates %.0f objects, want <= %d", tc.name, got, bound)
			}
		})
	}
}

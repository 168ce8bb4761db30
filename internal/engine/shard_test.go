package engine

import (
	"fmt"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/trace"
	"rankopt/internal/workload"
)

// partitionedCatalog builds the standard 3-table ranked catalog with every
// table hash-partitioned on the join key.
func partitionedCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, names := workload.RankedSet(3, workload.RankedConfig{
		N: 2000, Selectivity: 0.01, Seed: 11,
	})
	for _, name := range names {
		spec := catalog.PartitionSpec{Column: "key", Kind: catalog.PartitionHash}
		if err := cat.SetPartition(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestShardedMatchesUnsharded: for every shard count, the scatter-gather path
// must return exactly the tuples the single-engine path returns — same rows,
// same order, same global ranks.
func TestShardedMatchesUnsharded(t *testing.T) {
	cat := partitionedCatalog(t)
	base := New(cat, core.Options{})
	reqs := testRequests(9, false)
	want := make([]Response, len(reqs))
	for i, r := range reqs {
		want[i] = base.Run(r)
		if want[i].Err != nil {
			t.Fatal(want[i].Err)
		}
	}
	for _, shards := range []int{1, 2, 4} {
		eng := NewWithConfig(cat, Config{Shards: shards})
		if err := eng.ShardError(); err != nil {
			t.Fatal(err)
		}
		if eng.ShardCount() != shards {
			t.Fatalf("ShardCount = %d, want %d", eng.ShardCount(), shards)
		}
		for i, r := range reqs {
			got := eng.Run(r)
			if got.Err != nil {
				t.Fatalf("shards=%d %s: %v", shards, r.ID, got.Err)
			}
			if !got.Sharded || got.ShardStats == nil {
				t.Fatalf("shards=%d %s: did not take the sharded path", shards, r.ID)
			}
			if got.ShardStats.Shards != shards {
				t.Fatalf("shards=%d %s: stats report %d shards", shards, r.ID, got.ShardStats.Shards)
			}
			if fmt.Sprint(got.Columns) != fmt.Sprint(want[i].Columns) {
				t.Fatalf("shards=%d %s: columns %v, want %v", shards, r.ID, got.Columns, want[i].Columns)
			}
			if len(got.Tuples) != len(want[i].Tuples) {
				t.Fatalf("shards=%d %s: %d tuples, want %d", shards, r.ID, len(got.Tuples), len(want[i].Tuples))
			}
			for j := range got.Tuples {
				if got.Tuples[j].String() != want[i].Tuples[j].String() {
					t.Fatalf("shards=%d %s row %d:\n got %s\nwant %s",
						shards, r.ID, j, got.Tuples[j], want[i].Tuples[j])
				}
			}
		}
	}
}

// TestShardedFallbacks: sessions the coordinator cannot serve — explicit
// SELECT lists — must fall back to the single path, still answer correctly,
// and count under the non_shardable reason; EXPLAIN ANALYZE of a shardable
// query must now ride the sharded tier with per-shard analysis attached.
func TestShardedFallbacks(t *testing.T) {
	cat := partitionedCatalog(t)
	eng := NewWithConfig(cat, Config{Shards: 2})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	projected := Request{SQL: "SELECT T1.id FROM T1, T2 WHERE T1.key = T2.key " +
		"ORDER BY T1.score + T2.score DESC LIMIT 5"}
	resp := eng.Run(projected)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Sharded {
		t.Fatal("projected query must not take the sharded path")
	}
	analyzed := testRequests(1, false)[0]
	analyzed.Analyze = true
	resp = eng.Run(analyzed)
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !resp.Sharded {
		t.Fatal("EXPLAIN ANALYZE of a shardable query must execute sharded")
	}
	if resp.ShardAnalysis == nil || len(resp.ShardAnalysis.Shards) == 0 {
		t.Fatal("sharded EXPLAIN ANALYZE must attach per-shard analysis")
	}
	if resp.ShardStats == nil || len(resp.ShardStats.PerShard) != 2 {
		t.Fatalf("per-shard outcome rows missing: %+v", resp.ShardStats)
	}
	if m := eng.Snapshot(); m.ShardFallbacks != 1 {
		t.Fatalf("shard fallbacks = %d, want 1 (the projected query)", m.ShardFallbacks)
	}
	out := plan.FormatShardedAnalyze(resp.Plan, resp.ShardAnalysis, false)
	for _, want := range []string{"sharded over 2 shards", "shard 0:", "shard 1:", "ceiling est="} {
		if !strings.Contains(out, want) {
			t.Fatalf("FormatShardedAnalyze missing %q:\n%s", want, out)
		}
	}
}

// TestShardErrorDisablesSharding: a catalog without partition specs cannot
// shard; the engine must record why and keep serving unsharded.
func TestShardErrorDisablesSharding(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 200, Selectivity: 0.1, Seed: 5})
	eng := NewWithConfig(cat, Config{Shards: 4})
	if eng.ShardError() == nil {
		t.Fatal("missing partition specs must surface in ShardError")
	}
	if eng.ShardCount() != 0 {
		t.Fatalf("ShardCount = %d, want 0", eng.ShardCount())
	}
	resp := eng.Run(Request{SQL: "SELECT * FROM T1, T2 WHERE T1.key = T2.key " +
		"ORDER BY T1.score + T2.score DESC LIMIT 5"})
	if resp.Err != nil || resp.Sharded {
		t.Fatalf("unsharded serving broken: err=%v sharded=%v", resp.Err, resp.Sharded)
	}
}

// TestShardedMetrics: the engine-level counters aggregate the per-query
// coordinator stats.
func TestShardedMetrics(t *testing.T) {
	cat := partitionedCatalog(t)
	eng := NewWithConfig(cat, Config{Shards: 4})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	for _, r := range testRequests(6, false) {
		if resp := eng.Run(r); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	m := eng.Snapshot()
	if m.ShardedQueries != 6 {
		t.Fatalf("ShardedQueries = %d, want 6", m.ShardedQueries)
	}
	if m.ShardsStarted == 0 {
		t.Fatalf("ShardsStarted = 0: %+v", m)
	}
}

// TestShardedConcurrentSessions: concurrent sharded sessions over one engine
// must each match their sequential run — the shard workers of different
// sessions share nothing but the catalog. Run under -race this is the
// data-race check for the scatter-gather tier.
func TestShardedConcurrentSessions(t *testing.T) {
	cat := partitionedCatalog(t)
	eng := NewWithConfig(cat, Config{Shards: 4})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	reqs := testRequests(16, false)
	want := stripElapsed(runAll(eng, reqs, 1))
	got := stripElapsed(runAll(eng, reqs, 8))
	for i := range got {
		if got[i].Err != nil {
			t.Fatalf("%s: %v", reqs[i].ID, got[i].Err)
		}
		if len(got[i].Tuples) != len(want[i].Tuples) {
			t.Fatalf("%s: %d tuples, want %d", reqs[i].ID, len(got[i].Tuples), len(want[i].Tuples))
		}
		for j := range got[i].Tuples {
			if got[i].Tuples[j].String() != want[i].Tuples[j].String() {
				t.Fatalf("%s row %d diverged under concurrency", reqs[i].ID, j)
			}
		}
	}
}

// skewedShardCatalog is the rank-aware early-stop workload in small: two
// tables range-partitioned on the join key whose scores are a function of the
// key (ScoreByKey), so the global top-k lives in the highest-key shard and
// every other shard's a-priori ceiling can be beaten. rows is per table; keys
// spread evenly over the key range the shards split.
func skewedShardCatalog(t *testing.T, rows, keys int) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for i, name := range []string{"T1", "T2"} {
		cat.AddTable(workload.Ranked(workload.RankedConfig{
			Name: name, N: rows, Selectivity: 1 / float64(keys), Seed: 29 + int64(i)*7919, ScoreByKey: 1,
		}))
		if _, err := cat.CreateIndex(name, "key", false); err != nil {
			t.Fatal(err)
		}
		spec := catalog.PartitionSpec{Column: "key", Kind: catalog.PartitionRange, Lo: 0, Hi: float64(keys)}
		if err := cat.SetPartition(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

const skewedShardSQL = "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 10"

// TestShardedBoundsSkipShards: on the skewed catalog the coordinator's bounds
// must do work — some shard is pruned before starting or stopped early, so
// fewer shards start than sessions × shards. Counts, not timings: the skipped
// shard work is the rank-aware speed-up, whatever the CPU count.
func TestShardedBoundsSkipShards(t *testing.T) {
	const shards, sessions = 4, 8
	eng := NewWithConfig(skewedShardCatalog(t, 4000, 100), Config{Shards: shards})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sessions; i++ {
		resp := eng.Run(Request{SQL: skewedShardSQL})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if !resp.Sharded {
			t.Fatalf("session %d fell back to the single path", i)
		}
	}
	m := eng.Snapshot()
	if m.ShardsPruned+m.ShardsEarlyStopped == 0 {
		t.Errorf("no shard was pruned or stopped early (started %d)", m.ShardsStarted)
	}
	if m.ShardsStarted >= shards*sessions {
		t.Errorf("ShardsStarted = %d, want < %d", m.ShardsStarted, shards*sessions)
	}
}

// TestTracedShardedSession: a traced session on a sharded engine stays on the
// scatter-gather path and records one shard span per shard.
func TestTracedShardedSession(t *testing.T) {
	const shards = 4
	eng := NewWithConfig(skewedShardCatalog(t, 4000, 100), Config{Shards: shards})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(skewedShardSQL)
	resp := eng.Run(Request{SQL: skewedShardSQL, Trace: tr})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !resp.Sharded {
		t.Fatal("traced session fell back to the single path")
	}
	var shardSpans int
	for _, sp := range tr.Spans() {
		if sp.Cat == "shard" {
			shardSpans++
		}
	}
	if shardSpans < shards {
		t.Errorf("traced session recorded %d shard spans, want >= %d", shardSpans, shards)
	}
}

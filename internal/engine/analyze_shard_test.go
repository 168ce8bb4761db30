package engine

import (
	"math"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/workload"
)

// goldenShardedAnalyze is the byte-exact sharded EXPLAIN ANALYZE for the
// seeded 2-shard workload below. k exceeds the total join output, so both
// shards run to exhaustion — the only shard schedule with deterministic
// per-shard pull counts (early-stops depend on coordinator timing).
// Regenerate by printing plan.FormatShardedAnalyze(resp.Plan,
// resp.ShardAnalysis, false) when the depth model, formatting, or workload
// generator deliberately changes.
const goldenShardedAnalyze = `EXPLAIN ANALYZE (k=20000, sharded over 2 shards)
ShardMerge  (started=2 pruned=0 early_stopped=0 exhausted=2 pulled=8032 saved=0 kth=0.010)
  shard 0: exhausted  ceiling est=1.981 bound act=0.024 pulled=1037
    Limit(20000)  (rows est=8000 act=1037 err=671.5%)
      Rank(1*T1.score + 1*T2.score)  (rows est=8000 act=1037 err=671.5%)
        Sort(1*T1.score + 1*T2.score desc)  (rows est=8000 act=1037 err=671.5%)
          buffered=1037 emitted=1037
          HashJoin(T2.key = T1.key)  (rows est=8000 act=1037 err=671.5%)
            SeqScan(T2)  (rows est=400 act=60 err=566.7%)
            SeqScan(T1)  (rows est=400 act=52 err=669.2%)
  shard 1: exhausted  ceiling est=2.000 bound act=0.010 pulled=6995
    Limit(20000)  (rows est=8000 act=6995 err=14.4%)
      Rank(1*T1.score + 1*T2.score)  (rows est=8000 act=6995 err=14.4%)
        Sort(1*T1.score + 1*T2.score desc)  (rows est=8000 act=6995 err=14.4%)
          buffered=6995 emitted=6995
          HashJoin(T2.key = T1.key)  (rows est=8000 act=6995 err=14.4%)
            SeqScan(T2)  (rows est=400 act=340 err=17.6%)
            SeqScan(T1)  (rows est=400 act=348 err=14.9%)
`

// TestShardedAnalyzeGoldenTree pins the sharded EXPLAIN ANALYZE rendering
// end to end: the coordinator header with its merge counters, one shard
// table row per shard carrying the a-priori ceiling (est) against the live
// bound at decision time (act), and each shard's analyzed pipeline beneath
// its row.
func TestShardedAnalyzeGoldenTree(t *testing.T) {
	cat, names := workload.RankedSet(2, workload.RankedConfig{N: 400, Selectivity: 0.05, Seed: 7})
	for _, name := range names {
		spec := catalog.PartitionSpec{Column: "key", Kind: catalog.PartitionHash}
		if err := cat.SetPartition(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	eng := NewWithConfig(cat, Config{Shards: 2})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	resp := eng.Run(Request{
		ID:      "sharded-golden",
		SQL:     "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 20000",
		Analyze: true,
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !resp.Sharded || resp.ShardAnalysis == nil {
		t.Fatalf("shardable EXPLAIN ANALYZE must execute sharded with analysis (sharded=%v)", resp.Sharded)
	}
	got := plan.FormatShardedAnalyze(resp.Plan, resp.ShardAnalysis, false)
	if got != goldenShardedAnalyze {
		t.Errorf("sharded analyze diverged from golden.\ngot:\n%s\nwant:\n%s", got, goldenShardedAnalyze)
	}
}

// TestShardedAnalyzeDegenerateRows renders synthetic coordinator stats: a
// pruned shard (never started, -Inf ceiling), a shard with no provable
// ceiling (+Inf), and an aborted shard with no recorded bound (NaN). The
// table must stay well-formed — named causes, no raw NaN, the never-started
// marker on rows without a pipeline.
func TestShardedAnalyzeDegenerateRows(t *testing.T) {
	root := &plan.Node{Op: plan.OpLimit, K: 5, Card: 5, Children: []*plan.Node{
		{Op: plan.OpRank, Card: 5, Children: []*plan.Node{
			{Op: plan.OpSeqScan, Table: "T1", Card: 100},
		}},
	}}
	sa := &plan.ShardedAnalysis{Stats: exec.ShardMergeStats{
		Shards: 3, Started: 2, Pruned: 1, KthScore: math.NaN(),
		PerShard: []exec.ShardOutcome{
			{Shard: 0, Ceiling: math.Inf(-1), Bound: math.Inf(-1), Cause: exec.ShardCausePruned},
			{Shard: 1, Ceiling: math.Inf(1), Bound: 0.5, Pulled: 7, Cause: exec.ShardCauseExhausted},
			{Shard: 2, Ceiling: 1.25, Bound: math.NaN()},
		},
	}}
	out := plan.FormatShardedAnalyze(root, sa, false)
	for _, want := range []string{
		"kth=none",
		"shard 0: pruned  ceiling est=-Inf bound act=-Inf pulled=0  (never started)",
		"shard 1: exhausted  ceiling est=+Inf bound act=0.500 pulled=7  (never started)",
		"shard 2: aborted  ceiling est=1.250 bound act=none pulled=0  (never started)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

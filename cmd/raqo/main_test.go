package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/workload"
)

func testREPLEngine(t *testing.T, tables, rows int, sel float64, seed int64) *engine.Engine {
	t.Helper()
	cat, _ := workload.RankedSet(tables, workload.RankedConfig{N: rows, Selectivity: sel, Seed: seed})
	return engine.New(cat, core.Options{})
}

// The full stats path: a ranked 2-table top-k query must execute and print
// the measured-vs-estimated depth report without panicking.
func TestRunQueryStatsPath(t *testing.T) {
	eng := testREPLEngine(t, 2, 5000, 0.02, 31)
	var b strings.Builder
	sql := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5"
	if err := runQuery(&b, eng, sql, queryOpts{MaxRows: 10, Stats: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "measured vs estimated") {
		t.Errorf("stats report missing from output:\n%s", out)
	}
	if !strings.Contains(out, "measured dL=") {
		t.Errorf("no per-join stats line in output:\n%s", out)
	}
	if !strings.Contains(out, "(5 rows)") {
		t.Errorf("expected 5 result rows:\n%s", out)
	}
}

// Explain-only mode must stop before execution.
func TestRunQueryExplainOnly(t *testing.T) {
	eng := testREPLEngine(t, 2, 500, 0.05, 32)
	var b strings.Builder
	sql := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 3"
	if err := runQuery(&b, eng, sql, queryOpts{Explain: true, MaxRows: 10}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "rows)") {
		t.Errorf("explain-only output contains result rows:\n%s", b.String())
	}
}

// The REPL shares one engine across statements, so a repeated statement must
// be served from the plan cache and say so, and \stats must report the
// counters.
func TestRunQueryPlanCacheAcrossStatements(t *testing.T) {
	eng := testREPLEngine(t, 2, 500, 0.05, 33)
	sql := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 3"
	var first, second strings.Builder
	if err := runQuery(&first, eng, sql, queryOpts{MaxRows: 10}); err != nil {
		t.Fatal(err)
	}
	if err := runQuery(&second, eng, sql, queryOpts{MaxRows: 10}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), "(plan cache miss)") {
		t.Errorf("first statement should miss:\n%s", first.String())
	}
	if !strings.Contains(second.String(), "(plan cache hit)") {
		t.Errorf("repeated statement should hit:\n%s", second.String())
	}
	var stats strings.Builder
	printCacheStats(&stats, eng)
	out := stats.String()
	if !strings.Contains(out, "hits=1") || !strings.Contains(out, "misses=1") {
		t.Errorf(`\stats output = %q, want hits=1 misses=1`, out)
	}
}

// The acceptance path: \analyze on a 3-way rank-join query must print
// per-operator actual depths alongside the EstDL/EstDR estimates with
// relative errors, plus the sampled per-operator times.
func TestRunQueryAnalyzeThreeWay(t *testing.T) {
	eng := testREPLEngine(t, 3, 2000, 0.01, 11)
	var b strings.Builder
	sql := "SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + T2.score + T3.score DESC LIMIT 10"
	if err := runQuery(&b, eng, sql, queryOpts{Analyze: true, MaxRows: 5}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "EXPLAIN ANALYZE (k=10)") {
		t.Errorf("analyze header missing:\n%s", out)
	}
	if got := strings.Count(out, "depths: dL est="); got != 2 {
		t.Errorf("want 2 rank-join depth lines (3-way join), got %d:\n%s", got, out)
	}
	for _, want := range []string{"act=", "err=", "queue est=", "(open=", "next≈", "(10 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

// The traced path: \trace (and EXPLAIN TRACE) on a 3-way rank-join query
// must render the optimizer decision trace and the query span tree, skip
// the result rows, and honor -trace-json with a valid Chrome export.
func TestRunQueryTrace(t *testing.T) {
	eng := testREPLEngine(t, 3, 1000, 0.02, 21)
	sql := "SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + T2.score + T3.score DESC LIMIT 10"
	jsonPath := filepath.Join(t.TempDir(), "trace.json")
	var b strings.Builder
	if err := runQuery(&b, eng, sql, queryOpts{Trace: true, TraceJSON: jsonPath, MaxRows: 5}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"optimizer decision trace",
		"interesting orders:",
		"pruned:",
		"(First-N-Rows)",
		"k*=",
		"trace: SELECT",
		"execute",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%.800s", want, out)
		}
	}
	if strings.Contains(out, "rows)") {
		t.Errorf("trace output contains result rows:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Errorf("-trace-json wrote invalid JSON:\n%.200s", data)
	}
}

// EXPLAIN TRACE prefix detection must be case-insensitive and leave plain
// statements alone.
func TestTrimExplainTrace(t *testing.T) {
	if got, ok := trimExplainTrace("explain trace SELECT 1"); !ok || got != "SELECT 1" {
		t.Errorf("trimExplainTrace lowercase = %q, %v", got, ok)
	}
	if got, ok := trimExplainTrace("EXPLAIN TRACE  SELECT 1"); !ok || got != "SELECT 1" {
		t.Errorf("trimExplainTrace uppercase = %q, %v", got, ok)
	}
	if _, ok := trimExplainTrace("SELECT * FROM T1"); ok {
		t.Error("trimExplainTrace matched a plain statement")
	}
}

// \metrics must report the counters of the statements the session ran.
func TestPrintMetrics(t *testing.T) {
	eng := testREPLEngine(t, 2, 500, 0.05, 34)
	sql := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 3"
	var b strings.Builder
	if err := runQuery(&b, eng, sql, queryOpts{MaxRows: 10}); err != nil {
		t.Fatal(err)
	}
	if err := runQuery(&b, eng, sql, queryOpts{Analyze: true, MaxRows: 10}); err != nil {
		t.Fatal(err)
	}
	var m strings.Builder
	printMetrics(&m, eng)
	out := m.String()
	if !strings.Contains(out, "queries=2") || !strings.Contains(out, "analyzed=1") {
		t.Errorf(`\metrics output = %q, want queries=2 analyzed=1`, out)
	}
	if !strings.Contains(out, "plan cache:") || !strings.Contains(out, "latency:") {
		t.Errorf(`\metrics output missing sections: %q`, out)
	}
}

// TestPrintQueries renders the registry after one finished session; the row
// must carry the terminal state and the truncated SQL.
func TestPrintQueries(t *testing.T) {
	eng := testREPLEngine(t, 2, 500, 0.05, 35)
	var b strings.Builder
	printQueries(&b, eng)
	if got := b.String(); got != "no sessions\n" {
		t.Fatalf("empty registry rendered %q", got)
	}
	sql := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 4"
	if err := runQuery(&b, eng, sql, queryOpts{MaxRows: 5}); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	printQueries(&b, eng)
	out := b.String()
	for _, want := range []string{"[done]", "emitted=4/4", "SELECT * FROM T1, T2"} {
		if !strings.Contains(out, want) {
			t.Errorf("\\queries output missing %q:\n%s", want, out)
		}
	}
}

// TestRunQueryShardedAnalyze drives the REPL path a -shards session takes:
// EXPLAIN ANALYZE on a sharded engine must render the coordinator header and
// per-shard table instead of the single-tree format.
func TestRunQueryShardedAnalyze(t *testing.T) {
	cat, names := workload.RankedSet(2, workload.RankedConfig{N: 800, Selectivity: 0.02, Seed: 36})
	for _, name := range names {
		spec := catalog.PartitionSpec{Column: "key", Kind: catalog.PartitionHash}
		if err := cat.SetPartition(name, spec); err != nil {
			t.Fatal(err)
		}
	}
	eng := engine.NewWithConfig(cat, engine.Config{Shards: 2})
	if err := eng.ShardError(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	sql := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5"
	if err := runQuery(&b, eng, sql, queryOpts{MaxRows: 5, Analyze: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"sharded over 2 shards", "ShardMerge", "shard 0:", "ceiling est="} {
		if !strings.Contains(out, want) {
			t.Errorf("sharded analyze output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "(5 rows)") {
		t.Errorf("result rows missing:\n%s", out)
	}
}

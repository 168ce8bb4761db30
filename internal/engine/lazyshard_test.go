package engine

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
)

// TestShardedSessionAllocs pins what one warm sharded session allocates on
// the benchmark's sharded-skew shape (16 000 rows per table, 400 keys,
// 4 range shards, one running at a time): the top shard runs and the other
// three are pruned on their ceilings, so only the top shard's pipeline may be
// cloned, rebound and compiled. Building all four cost about 51 objects per
// shard; a session that built them measured 307, one whose gather kept the
// shard bounds in a struct and two slices beside the per-shard records 30,
// and one that rebuilt the merge, its shard inputs and its gather's
// scaffolding around pooled shard trees, with a context per started shard,
// 28.
func TestShardedSessionAllocs(t *testing.T) {
	eng := NewWithConfig(skewedShardCatalog(t, 16000, 400), Config{Shards: 4, ShardWidth: 1})
	req := Request{SQL: skewedShardSQL}
	resp := eng.Run(req) // warm the plan cache
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if st := resp.ShardStats; st == nil || st.Started != 1 || st.Pruned != 3 {
		t.Fatalf("shard stats %+v, want 1 started and 3 pruned", resp.ShardStats)
	}
	if raceBuild {
		t.Skip("allocation counts are only stable outside -race")
	}
	const bound = 11
	// The collector is paused as in TestRankJoinSessionAllocs: a session
	// that refills the pools a collection emptied is charged for it.
	gc := debug.SetGCPercent(-1)
	got := testing.AllocsPerRun(50, func() { eng.Run(req) })
	debug.SetGCPercent(gc)
	t.Logf("sharded session: %.0f allocs", got)
	if got > bound {
		t.Errorf("sharded session allocates %.0f objects, want <= %d", got, bound)
	}
}

// indexedSkewCatalog is skewedShardCatalog with a score index on both
// tables. Under indexOnly — no Sort enforcers, no any-k — the plan is a rank
// join over a score index scan, so every shard catalog must carry the index.
func indexedSkewCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := skewedShardCatalog(t, 1000, 100)
	for _, name := range []string{"T1", "T2"} {
		if _, err := cat.CreateIndex(name, "score", false); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

var indexOnly = core.Options{DisableEnforcedRankInputs: true, DisableAnyK: true}

// withoutIndexes copies shard catalog sc without its indexes: an index-scan
// plan cannot be rebound to it, while its statistics — and with them the
// shard's score ceiling — stay exactly the shard's.
func withoutIndexes(sc *catalog.Catalog) *catalog.Catalog {
	out := catalog.New()
	for _, name := range sc.Names() {
		tab, _ := sc.Table(name)
		out.AddTable(tab.Rel)
	}
	return out
}

// lifecycle counts a shard input's successful Opens and its Closes.
type lifecycle struct {
	exec.Operator
	opens, closes int
}

func (l *lifecycle) Open(ctx context.Context) error {
	if err := l.Operator.Open(ctx); err != nil {
		return err
	}
	l.opens++
	return nil
}

func (l *lifecycle) Close() error { l.closes++; return l.Operator.Close() }

// waitGoroutines fails t unless the goroutine count falls back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardLazyBuildFailure: shard 0's catalog cannot build the session's
// pipeline, but its ceiling is real and the lowest. While the gather prunes
// it, it is never built and the session succeeds; once the gather starts it,
// the build error aborts the session under the gather's failure contract —
// the error names the shard, the budget is released, every opened pipeline
// is closed once, no worker is left behind and the registry records the
// abort.
func TestShardLazyBuildFailure(t *testing.T) {
	const buildErr = "plan: shard 0: plan: rebind: no index on"
	cat := indexedSkewCatalog(t)
	newEngine := func(width int) *Engine {
		eng := NewWithConfig(cat, Config{Options: indexOnly, Shards: 4, ShardWidth: width})
		if err := eng.ShardError(); err != nil {
			t.Fatal(err)
		}
		eng.shards[0] = withoutIndexes(eng.shards[0])
		// Plan at k = 10, where the index-scan plan wins; the cached template
		// serves every k (k is parameterized out of the fingerprint).
		if resp := eng.Run(Request{SQL: skewedShardSQL, ExplainOnly: true}); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		return eng
	}

	t.Run("pruned", func(t *testing.T) {
		want := NewWithConfig(cat, Config{Options: indexOnly, Shards: 4, ShardWidth: 1}).Run(Request{SQL: skewedShardSQL})
		if want.Err != nil {
			t.Fatal(want.Err)
		}
		resp := newEngine(1).Run(Request{SQL: skewedShardSQL})
		if resp.Err != nil {
			t.Fatalf("a pruned shard was built: %v", resp.Err)
		}
		if c := resp.ShardStats.PerShard[0].Cause; c != exec.ShardCausePruned {
			t.Fatalf("shard 0 cause %q, want %q", c, exec.ShardCausePruned)
		}
		if fmt.Sprint(resp.Tuples) != fmt.Sprint(want.Tuples) {
			t.Fatalf("answer changed:\n got %v\nwant %v", resp.Tuples, want.Tuples)
		}
	})

	for _, tc := range []struct {
		name  string
		width int
		k     int
	}{
		{"started/width=4", 4, 10},
		{"started/k=100000", 1, 100000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sql := strings.Replace(skewedShardSQL, "LIMIT 10", fmt.Sprintf("LIMIT %d", tc.k), 1)
			eng := newEngine(tc.width)
			before := runtime.NumGoroutine()
			resp := eng.Run(Request{SQL: sql, Limits: exec.ResourceLimits{MaxBufferedTuples: 1 << 30}})
			if resp.Err == nil || !strings.Contains(resp.Err.Error(), buildErr) {
				t.Fatalf("err %v, want shard 0's build error", resp.Err)
			}
			qs := eng.Queries()
			if last := qs[len(qs)-1]; last.State != "aborted" {
				t.Fatalf("registry state %q, want aborted", last.State)
			}
			waitGoroutines(t, before)
			pi, _, err := eng.planFor(nil, sql)
			if err != nil {
				t.Fatal(err)
			}
			// The failed session handed its tree back with nothing charged.
			if tree := pi.tmpl.Take(); tree == nil || tree.Budget.Buffered() != 0 {
				t.Fatalf("pooled tree after the abort: %v", tree)
			}

			// A fresh sharded tree of the same plan, its shard inputs under
			// lifecycle counters the test can read: every successful Open is
			// matched by exactly one Close.
			tree, err := plan.CompileSharded(eng.shards, pi.root, tc.width, false)
			if err != nil {
				t.Fatalf("shard 0 must not be built before the gather starts it: %v", err)
			}
			tree.Arm(tc.k, exec.ResourceLimits{MaxBufferedTuples: 1 << 30})
			inputs := slices.Clone(tree.ShardInputs())
			counted := make([]*lifecycle, len(inputs))
			for i := range inputs {
				counted[i] = &lifecycle{Operator: inputs[i].Op}
				inputs[i].Op = counted[i]
			}
			merge, err := exec.NewShardMerge(inputs, tc.k, tree.Budget)
			if err != nil {
				t.Fatal(err)
			}
			merge.StartWidth = tc.width
			_, err = exec.CollectCtx(context.Background(), merge)
			if err == nil || !strings.Contains(err.Error(), buildErr) {
				t.Fatalf("gather err %v, want shard 0's build error", err)
			}
			if b := tree.Budget.Buffered(); b != 0 {
				t.Errorf("budget holds %d tuples after the abort, want 0", b)
			}
			for i, c := range counted {
				if c.closes != c.opens || c.closes > 1 {
					t.Errorf("shard %d: %d opens, %d closes", i, c.opens, c.closes)
				}
			}
			waitGoroutines(t, before)
		})
	}
}

// TestShardConcurrentLazyCompiles runs analyzed sessions at a width where
// every shard starts at once, so all four lazy builds run concurrently on
// their workers (the race-detector run is the check that they share no
// written state). The report must still come out in shard order, and the
// answer must be the unsharded engine's.
func TestShardConcurrentLazyCompiles(t *testing.T) {
	const shards = 4
	cat := partitionedCatalog(t)
	sql := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 10"
	want := New(cat, core.Options{}).Run(Request{SQL: sql})
	if want.Err != nil {
		t.Fatal(want.Err)
	}
	eng := NewWithConfig(cat, Config{Shards: shards, ShardWidth: shards})
	var wantJoins []string
	for i := 0; i < shards; i++ {
		wantJoins = append(wantJoins, fmt.Sprintf("HRJN[shard %d]", i))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				resp := eng.Run(Request{SQL: sql, Analyze: true})
				if resp.Err != nil {
					t.Error(resp.Err)
					return
				}
				var started, analyzed, joins []string
				for _, out := range resp.ShardStats.PerShard {
					if out.Cause != exec.ShardCausePruned {
						started = append(started, fmt.Sprint(out.Shard))
					}
				}
				for _, run := range resp.ShardAnalysis.Shards {
					analyzed = append(analyzed, fmt.Sprint(run.Shard))
				}
				for _, rj := range resp.RankJoins {
					joins = append(joins, rj.Op)
				}
				if len(started) != shards || !reflect.DeepEqual(analyzed, started) {
					t.Errorf("analyzed shards %v, started %v", analyzed, started)
				}
				if !reflect.DeepEqual(joins, wantJoins) {
					t.Errorf("rank joins %v, want %v", joins, wantJoins)
				}
				if fmt.Sprint(resp.Tuples) != fmt.Sprint(want.Tuples) {
					t.Errorf("sharded answer differs:\n got %v\nwant %v", resp.Tuples, want.Tuples)
				}
			}
		}()
	}
	wg.Wait()

	// A never-built shard renders as before: the pruned rows of the skewed
	// catalog are marked (never started), and only the running shard has an
	// analyzed pipeline.
	skew := NewWithConfig(skewedShardCatalog(t, 4000, 100), Config{Shards: shards, ShardWidth: 1})
	resp := skew.Run(Request{SQL: skewedShardSQL, Analyze: true})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if runs := resp.ShardAnalysis.Shards; len(runs) != 1 || runs[0].Shard != 3 {
		t.Fatalf("analyzed shards %+v, want only shard 3", runs)
	}
	out := plan.FormatShardedAnalyze(resp.Plan, resp.ShardAnalysis, false)
	for i := 0; i < 3; i++ {
		prefix := fmt.Sprintf("  shard %d: pruned ", i)
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, prefix) {
				found = strings.HasSuffix(line, "(never started)")
			}
		}
		if !found {
			t.Errorf("shard %d not rendered as pruned and never started:\n%s", i, out)
		}
	}
}

// TestShardedTreePoolBuildsOnlyStartedShard serves warm sessions of the
// skewed catalog's template from several goroutines at k from 1 to 20. The
// gather starts only shard 3 and prunes the other three on their ceilings,
// so every tree the template pools afterwards is a sharded tree with shard
// 3's pipeline built and shards 0–2 never built, and holds no charged tuple.
func TestShardedTreePoolBuildsOnlyStartedShard(t *testing.T) {
	const goroutines, sessions = 4, 25
	eng := NewWithConfig(skewedShardCatalog(t, 4000, 100), Config{Shards: 4, ShardWidth: 1})
	warm := eng.Run(Request{SQL: skewedShardSQL})
	if warm.Err != nil {
		t.Fatal(warm.Err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < sessions; s++ {
				k := 1 + (g*sessions+s)%20
				sql := strings.Replace(skewedShardSQL, "LIMIT 10", fmt.Sprintf("LIMIT %d", k), 1)
				resp := eng.Run(Request{SQL: sql, Limits: exec.ResourceLimits{MaxBufferedTuples: 1 << 30}})
				if resp.Err != nil {
					t.Error(resp.Err)
					return
				}
				if st := resp.ShardStats; len(resp.Tuples) != k || st == nil || st.Started != 1 || st.Pruned != 3 {
					t.Errorf("k=%d: %d rows, shard stats %+v; want k rows, 1 started and 3 pruned", k, len(resp.Tuples), st)
					return
				}
			}
		}()
	}
	wg.Wait()
	tmpl := templateOf(t, eng, warm.Fingerprint)
	trees := 0
	for tree := tmpl.Take(); tree != nil; tree = tmpl.Take() {
		trees++
		if _, ok := tree.Root.(*exec.ShardMerge); !ok {
			t.Fatal("the template pools an unsharded tree")
		}
		if b := tree.Budget.Buffered(); b != 0 {
			t.Errorf("an idle tree holds %d charged tuples", b)
		}
		tree.Pipelines(func(shard int, p *plan.Tree, _ bool) {
			if built := p != nil; built != (shard == 3) {
				t.Errorf("shard %d: built = %v", shard, built)
			}
		})
	}
	if trees == 0 {
		t.Fatal("the template kept no tree")
	}
}

// TestShardedPooledMergeKeepsAnswers: one engine serves a sharded template
// serially, so every session after the first reuses the first session's
// tree, merge included. A session's answer rows and its per-shard outcome
// rows are its own: later sessions at other k must leave them as they were.
// On the skewed catalog one shard runs; on the hash-partitioned one all four
// run at once, so rows reach the merge in a different order every session.
func TestShardedPooledMergeKeepsAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		cfg  Config
		sql  string
	}{
		{"skewed", skewedShardCatalog(t, 4000, 100), Config{Shards: 4, ShardWidth: 1}, skewedShardSQL},
		{"all-started", partitionedCatalog(t), Config{Shards: 4, ShardWidth: 4}, fmt.Sprintf(treePoolSQL, 10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewWithConfig(tc.cat, tc.cfg)
			first := eng.Run(Request{SQL: tc.sql})
			if first.Err != nil || first.ShardStats == nil {
				t.Fatalf("err %v, shard stats %v", first.Err, first.ShardStats)
			}
			tuples, perShard := fmt.Sprint(first.Tuples), fmt.Sprintf("%+v", first.ShardStats.PerShard)
			for _, k := range []int{1, 25, 3, 10, 7, 12} {
				sql := strings.Replace(tc.sql, "LIMIT 10", fmt.Sprintf("LIMIT %d", k), 1)
				resp := eng.Run(Request{SQL: sql})
				if resp.Err != nil || !resp.CacheHit || !resp.Sharded || len(resp.Tuples) != k {
					t.Fatalf("k=%d: err %v, cache hit %v, sharded %v, %d rows", k, resp.Err, resp.CacheHit, resp.Sharded, len(resp.Tuples))
				}
			}
			if got := fmt.Sprint(first.Tuples); got != tuples {
				t.Errorf("the first session's answer changed under later sessions:\n got %s\nwant %s", got, tuples)
			}
			if got := fmt.Sprintf("%+v", first.ShardStats.PerShard); got != perShard {
				t.Errorf("the first session's shard outcomes changed under later sessions:\n got %s\nwant %s", got, perShard)
			}
		})
	}
}

package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/plan"
)

// treePoolSQL is the one query shape the pool tests serve, at LIMIT %d.
const treePoolSQL = "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT %d"

// bruteTopScores is the best k combined scores of T1 ⋈ T2 on key.
func bruteTopScores(t *testing.T, cat *catalog.Catalog, k int) []float64 {
	t.Helper()
	t1, err := cat.Table("T1")
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cat.Table("T2")
	if err != nil {
		t.Fatal(err)
	}
	key, err := t1.Rel.Schema().Resolve("T1", "key")
	if err != nil {
		t.Fatal(err)
	}
	score, err := t1.Rel.Schema().Resolve("T1", "score")
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[int64][]float64{}
	for _, r := range t2.Rel.Tuples() {
		byKey[r[key].AsInt()] = append(byKey[r[key].AsInt()], r[score].AsFloat())
	}
	var all []float64
	for _, l := range t1.Rel.Tuples() {
		for _, s := range byKey[l[key].AsInt()] {
			all = append(all, l[score].AsFloat()+s)
		}
	}
	slices.SortFunc(all, func(a, b float64) int { return cmp.Compare(b, a) })
	return all[:min(k, len(all))]
}

// scoresOf reads the score column (next to last under SELECT *) of resp.
func scoresOf(resp Response) []float64 {
	out := make([]float64, len(resp.Tuples))
	for i, tup := range resp.Tuples {
		out[i] = tup[len(tup)-2].AsFloat()
	}
	return out
}

// sameScores reports whether two descending score lists agree.
func sameScores(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), 1) })
}

// templateOf returns the engine's cached template for fingerprint fp.
func templateOf(t *testing.T, eng *Engine, fp string) *plan.Template {
	t.Helper()
	tmpl, ok := eng.cache.lookupPlan(fp, eng.cat.StatsEpoch(), 0)
	if !ok {
		t.Fatalf("no cached template for %q", fp)
	}
	return tmpl
}

// TestTreePoolConcurrentSessions runs 8 goroutines × 200 sessions of one
// template, at k from 1 to 20, on an unsharded engine and on a 4-shard one
// where every shard starts. Sessions take the template's compiled trees and
// hand them back, so one tree serves sessions of many goroutines in turn;
// every answer must be brute force's, and afterwards every free list must
// hold each tree at most once — a tree handed to two sessions at once would
// come back twice. CI repeats it under the race detector, where two sessions
// sharing a tree would also race on its operators.
func TestTreePoolConcurrentSessions(t *testing.T) {
	const goroutines, sessions, maxK, shards = 8, 200, 20, 4
	cat := partitionedCatalog(t)
	want := bruteTopScores(t, cat, maxK)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unsharded", Config{}},
		{"sharded", Config{Shards: shards, ShardWidth: shards}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewWithConfig(cat, tc.cfg)
			warm := eng.Run(Request{SQL: fmt.Sprintf(treePoolSQL, maxK)})
			if warm.Err != nil {
				t.Fatal(warm.Err)
			}
			if warm.Sharded != (tc.cfg.Shards > 0) {
				t.Fatalf("sharded = %v, want %v", warm.Sharded, tc.cfg.Shards > 0)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for s := 0; s < sessions; s++ {
						k := 1 + (g*sessions+s)%maxK
						resp := eng.Run(Request{SQL: fmt.Sprintf(treePoolSQL, k)})
						if resp.Err != nil {
							t.Error(resp.Err)
							return
						}
						if got := scoresOf(resp); !sameScores(got, want[:k]) {
							t.Errorf("k=%d: scores %v, brute force %v", k, got, want[:k])
							return
						}
					}
				}()
			}
			wg.Wait()
			tmpl := templateOf(t, eng, warm.Fingerprint)
			for slot := 0; slot <= shards; slot++ {
				seen := map[*plan.Tree]bool{}
				for tree := tmpl.Take(slot); tree != nil; tree = tmpl.Take(slot) {
					if seen[tree] {
						t.Fatalf("slot %d holds a tree twice", slot)
					}
					seen[tree] = true
					if b := tree.Budget.Buffered(); b != 0 {
						t.Errorf("slot %d: an idle tree holds %d charged tuples", slot, b)
					}
				}
				if len(seen) == 0 && (slot == 0) == (tc.cfg.Shards == 0) {
					t.Errorf("slot %d kept no tree", slot)
				}
			}
		})
	}
}

// TestTemplateServesSessionK builds one template at k = 20 and serves it at
// k = 1, 5 and 10 from its pooled trees on both tiers. Every consumer of the
// session's k must read the request's, not the template plan's 20: the rows
// returned, the registry's k, the sharded tier's merge, and — unsharded — the
// depth-model estimates in Response.RankJoins, which must equal what
// PropagateK over Instantiate(k) computes.
func TestTemplateServesSessionK(t *testing.T) {
	cat := partitionedCatalog(t)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unsharded", Config{}},
		{"sharded", Config{Shards: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := NewWithConfig(cat, tc.cfg)
			built := eng.Run(Request{SQL: fmt.Sprintf(treePoolSQL, 20)})
			if built.Err != nil {
				t.Fatal(built.Err)
			}
			tmpl := templateOf(t, eng, built.Fingerprint)
			if tmpl.K() != 20 {
				t.Fatalf("template built at k=%d, want 20", tmpl.K())
			}
			for _, k := range []int{1, 5, 10} {
				resp := eng.Run(Request{SQL: fmt.Sprintf(treePoolSQL, k)})
				if resp.Err != nil {
					t.Fatal(resp.Err)
				}
				if !resp.CacheHit || resp.Plan != tmpl.Root() {
					t.Fatalf("k=%d: hit=%v, plan is the template's: %v", k, resp.CacheHit, resp.Plan == tmpl.Root())
				}
				if len(resp.Tuples) != k || !sameScores(scoresOf(resp), bruteTopScores(t, cat, k)) {
					t.Errorf("k=%d: %d rows %v", k, len(resp.Tuples), scoresOf(resp))
				}
				qs := eng.Queries()
				if got := qs[len(qs)-1].K; got != int64(k) {
					t.Errorf("k=%d: registry k %d", k, got)
				}
				if resp.Sharded != (tc.cfg.Shards > 0) {
					t.Fatalf("k=%d: sharded = %v", k, resp.Sharded)
				}
				if resp.Sharded {
					continue
				}
				var wantEst []string
				plan.PropagateK(tmpl.Instantiate(k), float64(k), func(n *plan.Node, nk float64) {
					if n.Op.IsRankJoin() {
						dL, dR := n.Depths(nk)
						wantEst = append(wantEst, fmt.Sprintf("%v %.9g %.9g", n.Op, dL, dR))
					}
				})
				var gotEst []string
				for _, rj := range resp.RankJoins {
					gotEst = append(gotEst, fmt.Sprintf("%s %.9g %.9g", rj.Op, rj.EstDL, rj.EstDR))
				}
				if len(wantEst) == 0 || strings.Join(gotEst, "; ") != strings.Join(wantEst, "; ") {
					t.Errorf("k=%d: estimates %v, PropagateK over Instantiate(k) gives %v", k, gotEst, wantEst)
				}
			}
		})
	}
}

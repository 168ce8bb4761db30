package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/costmodel"
	"rankopt/internal/plan"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// TestReleasedRowPoolReuse keeps one session's answer rows per shape and
// checks that later sessions leave them alone. A rank operator whose parent
// copies what it reads carves its released rows from pooled chunks and hands
// them back at its Close, so later sessions, on any goroutine and of any
// template, write into them; the rows a session answers with must never be
// among them. The shapes cover every rank operator's release rows: a tree of
// HRJNs (plan-churn's 4-way shape at k ≤ 10; above that it plans AnyK), an
// NRJN, AnyK and TA on the multimedia
// corpus, and sharded-skew on 4 shards, whose coordinator pulls each shard's
// answers through RankAssign.Next. After one kept session per shape at its
// largest k, 4 goroutines run 200 rounds of a session of every shape at
// changing k, so each shape's template serves 800 sessions between chunks
// the other shapes write different rows into (a quarter of the rounds under
// the race detector); every answer must equal the prefix of the kept one,
// and afterwards the kept rows must still equal their deep copy. A kept
// answer is first checked on its own — ranks 1..k
// next to non-increasing scores — so rows cleared at their session's Close
// cannot pass as a copy of themselves. CI repeats it under the race
// detector.
func TestReleasedRowPoolReuse(t *testing.T) {
	const goroutines = 4
	rounds := 200
	if raceBuild {
		// Ten repeats of a quarter of the rounds (CI's race step) still give
		// the detector 2 000 sessions of every template, in about 25 s on
		// 2 vCPUs instead of 90.
		rounds = 50
	}
	churn, _ := workload.RankedSet(4, workload.RankedConfig{N: 1500, Selectivity: 0.01, Seed: 2004})
	corpus, _ := workload.Corpus(workload.CorpusConfig{Objects: 600, Features: 3, Seed: 2004})
	// On a corpus this small (deep-dig's 5 000 objects would make every
	// session a full drain of 15 000 rows) the rank joins and a sort of the
	// join beat TA and any-k. sortSpills makes them the cheapest plans of a
	// top-k selection: every join result is sorted through a three-page
	// buffer of one-tuple pages, so with the rank joins off the one plan
	// without that sort wins, TA's or, with TA off too, any-k's.
	sortSpills := costmodel.Default()
	sortSpills.PageSize, sortSpills.BufferPages, sortSpills.RandPage = 1, 3, sortSpills.CPUTuple
	taOpts := core.Options{DisableHRJN: true, DisableNRJN: true, DisableAnyK: true, Params: &sortSpills}
	anyKOpts := core.Options{DisableHRJN: true, DisableNRJN: true, DisableRankAggregate: true, Params: &sortSpills}
	shapes := []struct {
		name string
		eng  *Engine
		sql  string // with %d for the LIMIT
		maxK int
		// op is the rank operator the plan must hold, unless the session is
		// sharded.
		op      plan.OpType
		sharded bool
	}{
		{"hrjn-tree", New(churn, core.Options{}), "SELECT * FROM T1, T2, T3, T4 WHERE T1.key = T2.key AND T2.key = T3.key AND T3.key = T4.key " +
			"ORDER BY 0.1*T1.score + 0.2*T2.score + 0.3*T3.score + 0.4*T4.score DESC LIMIT %d", 10, plan.OpHRJN, false},
		{"nrjn", New(nrjnCatalog(), core.Options{}), "SELECT * FROM A, C WHERE A.nk = C.nk ORDER BY A.score + C.score DESC LIMIT %d", 25, plan.OpNRJN, false},
		{"anyk", New(corpus, anyKOpts), "SELECT * FROM ColorHist, ColorLayout, Texture WHERE ColorHist.id = ColorLayout.id AND ColorLayout.id = Texture.id " +
			"ORDER BY ColorHist.score + ColorLayout.score + Texture.score DESC LIMIT %d", 100, plan.OpAnyK, false},
		{"ta", New(corpus, taOpts), "SELECT * FROM ColorHist, Texture WHERE ColorHist.id = Texture.id " +
			"ORDER BY ColorHist.score + 2 * Texture.score DESC LIMIT %d", 20, plan.OpRankAgg, false},
		{"sharded-skew", NewWithConfig(skewedShardCatalog(t, 4000, 100), Config{Shards: 4, ShardWidth: 1}),
			strings.Replace(skewedShardSQL, "LIMIT 10", "LIMIT %d", 1), 50, 0, true},
	}
	kept := make([][]relation.Tuple, len(shapes))
	want := make([][]relation.Tuple, len(shapes))
	for i, sh := range shapes {
		resp := sh.eng.Run(Request{SQL: fmt.Sprintf(sh.sql, sh.maxK)})
		if resp.Err != nil {
			t.Fatalf("%s: %v", sh.name, resp.Err)
		}
		if resp.Sharded != sh.sharded {
			t.Fatalf("%s: sharded = %v, want %v", sh.name, resp.Sharded, sh.sharded)
		}
		if !sh.sharded && resp.Plan.CountOps(sh.op) == 0 {
			t.Fatalf("%s: planned without %v; the shape no longer exercises it:\n%s", sh.name, sh.op, plan.Explain(resp.Plan))
		}
		if len(resp.Tuples) != sh.maxK {
			t.Fatalf("%s: %d rows, want %d", sh.name, len(resp.Tuples), sh.maxK)
		}
		for r, row := range resp.Tuples {
			score, rank := row[len(row)-2], row[len(row)-1]
			if rank.Kind() != relation.KindInt || rank.AsInt() != int64(r+1) || !score.Numeric() ||
				r > 0 && score.AsFloat() > resp.Tuples[r-1][len(row)-2].AsFloat() {
				t.Fatalf("%s: row %d reads %v, not the answer of rank %d", sh.name, r, row, r+1)
			}
		}
		kept[i] = resp.Tuples
		want[i] = make([]relation.Tuple, len(resp.Tuples))
		for r, row := range resp.Tuples {
			want[i][r] = slices.Clone(row)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < rounds; s++ {
				for i, sh := range shapes {
					k := 1 + (g*rounds+s+i)%sh.maxK
					resp := sh.eng.Run(Request{SQL: fmt.Sprintf(sh.sql, k)})
					if resp.Err != nil {
						t.Errorf("%s: %v", sh.name, resp.Err)
						return
					}
					if !slices.EqualFunc(resp.Tuples, want[i][:k], slices.Equal) {
						t.Errorf("%s, k=%d: answer differs from the first %d rows of the kept one", sh.name, k, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i, sh := range shapes {
		for r := range want[i] {
			if !slices.Equal(kept[i][r], want[i][r]) {
				t.Fatalf("%s: kept row %d reads %v after the sessions, was %v", sh.name, r, kept[i][r], want[i][r])
			}
		}
	}
}

// nrjnCatalog is two tables the planner joins with NRJN: the 60-row C,
// sorted, is the outer over the materialized 2 000-row A.
func nrjnCatalog() *catalog.Catalog {
	rng := rand.New(rand.NewSource(5))
	cat := catalog.New()
	for _, tab := range []struct {
		name string
		n    int
	}{{"A", 2000}, {"C", 60}} {
		rel := relation.New(tab.name, relation.NewSchema(
			relation.Column{Table: tab.name, Name: "nk", Kind: relation.KindInt},
			relation.Column{Table: tab.name, Name: "score", Kind: relation.KindFloat},
		))
		for i := 0; i < tab.n; i++ {
			rel.MustAppend(relation.Tuple{relation.Int(int64(rng.Intn(40))), relation.Float(rng.Float64())})
		}
		cat.AddTable(rel)
	}
	return cat
}

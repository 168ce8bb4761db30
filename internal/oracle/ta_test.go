package oracle

import (
	"fmt"
	"strings"
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// TestTADifferentialCorpus runs the TA pass over seeded top-k selection
// cases: every alternative agrees with brute force, every case enumerates
// the TA plan, and the TA plan agrees unsharded and on 2 and 4 id shards.
func TestTADifferentialCorpus(t *testing.T) {
	n := corpusSize()
	taPlans, sharded := 0, 0
	for seed := int64(1); seed <= int64(n); seed++ {
		c := GenerateTA(seed)
		rep, err := RunTA(c)
		if err != nil {
			writeReproducer(t, c, err)
			t.Fatalf("TA oracle disagreement: %v", err)
		}
		taPlans += rep.TAPlans
		sharded += rep.Sharded
	}
	t.Logf("TA oracle: %d queries, %d TA plans, %d sharded runs, all agreed", n, taPlans, sharded)
	if sharded != 2*n {
		t.Fatalf("expected every sharded run to shard: %d of %d", sharded, 2*n)
	}
}

// BenchmarkTAPlan times the forced TA plan against the plan the optimizer
// chooses, on deep-dig's data (workload.Corpus, 5 000 objects, data seed
// 2004) with 2 and 3 equally weighted features and k of 10 and 100: compile
// plus a full drain per iteration, as a session runs it. The TA plan is never
// chosen there, so this is the evidence its pricing is judged against.
func BenchmarkTAPlan(b *testing.B) {
	for _, features := range []int{2, 3} {
		cat, names := workload.Corpus(workload.CorpusConfig{Objects: 5000, Features: features, Seed: 2004})
		var conjs, terms []string
		for i, name := range names {
			if i > 0 {
				conjs = append(conjs, names[i-1]+".id = "+name+".id")
			}
			terms = append(terms, name+".score")
		}
		for _, k := range []int{10, 100} {
			sql := fmt.Sprintf("SELECT * FROM %s WHERE %s ORDER BY %s DESC LIMIT %d",
				strings.Join(names, ", "), strings.Join(conjs, " AND "), strings.Join(terms, " + "), k)
			q, err := sqlparse.Parse(sql)
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.Optimize(cat, q, core.Options{CollectAllPlans: true})
			if err != nil {
				b.Fatal(err)
			}
			var ta *plan.Node
			for _, p := range res.AllPlans {
				if p.CountOps(plan.OpRankAgg) > 0 {
					ta = p
				}
			}
			if ta == nil {
				b.Fatalf("%s: no TA plan enumerated", sql)
			}
			for _, run := range []struct {
				name string
				root *plan.Node
			}{{"TA", ta}, {"chosen", res.Best}} {
				b.Run(fmt.Sprintf("%df/k=%d/%s", features, k, run.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						op, err := plan.Compile(cat, run.root)
						if err != nil {
							b.Fatal(err)
						}
						rows, err := exec.Collect(op)
						if err != nil || len(rows) != k {
							b.Fatalf("%d rows, err %v", len(rows), err)
						}
					}
				})
			}
		}
	}
}

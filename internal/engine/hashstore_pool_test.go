package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/relation"
)

// TestHashStorePoolConcurrent runs HRJN- and NRJN-planned sessions, joined on
// numeric and on string keys, from eight goroutines on one engine. Every rank
// join takes its hash tables from one shared pool and hands them back at
// Close, so a store moves between goroutines, operators and key kinds from
// one session to the next; every answer must still be brute force's. CI runs
// it repeatedly under the race detector.
func TestHashStorePoolConcurrent(t *testing.T) {
	mk := func(name string, n int, seed int64) *relation.Relation {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.New(name, relation.NewSchema(
			relation.Column{Table: name, Name: "nk", Kind: relation.KindInt},
			relation.Column{Table: name, Name: "sk", Kind: relation.KindString},
			relation.Column{Table: name, Name: "score", Kind: relation.KindFloat},
		))
		for i := 0; i < n; i++ {
			k := rng.Intn(40)
			rel.MustAppend(relation.Tuple{relation.Int(int64(k)), relation.String_(fmt.Sprintf("k%d", k)), relation.Float(rng.Float64())})
		}
		return rel
	}
	// A and B are large enough that the planner rank-joins them with HRJN;
	// the 60-row C becomes NRJN's materialized inner.
	rels := map[string]*relation.Relation{"A": mk("A", 2000, 1), "B": mk("B", 2000, 2), "C": mk("C", 60, 3)}
	cat := catalog.New()
	for _, name := range []string{"A", "B", "C"} {
		cat.AddTable(rels[name])
	}
	eng := New(cat, core.Options{})

	type shape struct {
		l, r, key string
		op        plan.OpType
	}
	shapes := []shape{{"A", "B", "nk", plan.OpHRJN}, {"A", "B", "sk", plan.OpHRJN}, {"A", "C", "nk", plan.OpNRJN}, {"A", "C", "sk", plan.OpNRJN}}
	const maxK = 25
	sqlOf := func(s shape, k int) string {
		return fmt.Sprintf("SELECT * FROM %[1]s, %[2]s WHERE %[1]s.%[3]s = %[2]s.%[3]s ORDER BY %[1]s.score + %[2]s.score DESC LIMIT %[4]d", s.l, s.r, s.key, k)
	}
	// want[i] is shape i's best maxK combined scores by brute force.
	want := make([][]float64, len(shapes))
	for i, s := range shapes {
		l, r := rels[s.l], rels[s.r]
		col := map[string]int{"nk": 0, "sk": 1}[s.key]
		var all []float64
		for _, lt := range l.Tuples() {
			for _, rt := range r.Tuples() {
				if lt[col].Equal(rt[col]) {
					all = append(all, lt[2].AsFloat()+rt[2].AsFloat())
				}
			}
		}
		slices.SortFunc(all, func(a, b float64) int { return cmp.Compare(b, a) })
		want[i] = all[:maxK]
		resp := eng.Run(Request{SQL: sqlOf(s, maxK)})
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if resp.Plan.CountOps(s.op) == 0 {
			t.Fatalf("%s planned without %v; the shape no longer exercises it", sqlOf(s, maxK), s.op)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				si, k := (g+i)%len(shapes), 1+(g*7+i*3)%maxK
				s := shapes[si]
				resp := eng.Run(Request{SQL: sqlOf(s, k)})
				if resp.Err != nil {
					t.Errorf("goroutine %d, %s: %v", g, sqlOf(s, k), resp.Err)
					return
				}
				got := make([]float64, len(resp.Tuples))
				li, ri := slices.Index(resp.Columns, s.l+".score"), slices.Index(resp.Columns, s.r+".score")
				for n, tp := range resp.Tuples {
					got[n] = tp[li].AsFloat() + tp[ri].AsFloat()
				}
				if len(got) != k {
					t.Errorf("goroutine %d, %s: %d rows, want %d", g, sqlOf(s, k), len(got), k)
					return
				}
				for n := range got {
					if math.Abs(got[n]-want[si][n]) > 1e-9 {
						t.Errorf("goroutine %d, %s: score %d is %v, brute force %v", g, sqlOf(s, k), n, got[n], want[si][n])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

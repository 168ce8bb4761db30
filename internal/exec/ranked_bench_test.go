package exec

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// idScored builds one feature table of the deep-dig shape: n rows
// (id, score), every id once, in shuffled order. With sorted set the rows
// come best score first, the input contract of HRJN.
func idScored(table string, n int, seed int64, sorted bool) (*relation.Schema, []relation.Tuple) {
	sch := relation.NewSchema(
		relation.Column{Table: table, Name: "id", Kind: relation.KindInt},
		relation.Column{Table: table, Name: "score", Kind: relation.KindFloat},
	)
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(n)
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		score := rng.Float64()
		if sorted {
			score = float64(n-i) / float64(n)
		}
		tuples[i] = relation.Tuple{relation.Int(int64(ids[i])), relation.Float(score)}
	}
	return sch, tuples
}

// keyScored builds one key-joined input: n rows (key, score), keys drawn
// uniformly from 0..keys-1, scores uniform in [0, w), best score first.
func keyScored(table string, n, keys int, w float64, seed int64) (*relation.Schema, []relation.Tuple) {
	sch := relation.NewSchema(
		relation.Column{Table: table, Name: "key", Kind: relation.KindInt},
		relation.Column{Table: table, Name: "score", Kind: relation.KindFloat},
	)
	rng := rand.New(rand.NewSource(seed))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = w * rng.Float64()
	}
	slices.SortFunc(scores, func(a, b float64) int { return cmp.Compare(b, a) })
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{relation.Int(int64(rng.Intn(keys))), relation.Float(scores[i])}
	}
	return sch, tuples
}

// BenchmarkAnyKBuild is one deep-dig request at the operator: a fresh AnyK
// over m id-joined 5 000-row inputs, opened, read for k results and closed —
// the build is all of it, as on the workload, whose scores are one-term
// ScoreSums. The inputs are lent slices (every score and key read from the
// tuple) or, under stored/, SeqScans of stored relations, whose levels read
// the relations' column images.
func BenchmarkAnyKBuild(b *testing.B) {
	const n = 5000
	for _, m := range []int{2, 3} {
		schemas := make([]*relation.Schema, m)
		tuples := make([][]relation.Tuple, m)
		rels := make([]*relation.Relation, m)
		scores := make([]expr.Expr, m)
		keys := make([]expr.Expr, m)
		for i := 0; i < m; i++ {
			tab := string(rune('A' + i))
			schemas[i], tuples[i] = idScored(tab, n, int64(100+i), false)
			rels[i] = relation.New(tab, schemas[i])
			for _, t := range tuples[i] {
				rels[i].MustAppend(t)
			}
			scores[i] = expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col(tab, "score")})
			keys[i] = expr.Col(tab, "id")
		}
		for _, stored := range []bool{false, true} {
			for _, k := range []int{10, 100} {
				name := fmt.Sprintf("%dway/k=%d", m, k)
				if stored {
					name = fmt.Sprintf("%dway/stored/k=%d", m, k)
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						ins := make([]Operator, m)
						for x := range ins {
							if stored {
								ins[x] = NewSeqScan(rels[x])
							} else {
								ins[x] = FromTuples(schemas[x], tuples[x])
							}
						}
						j, err := NewAnyK(ins, scores, keys[:m-1], keys[1:])
						if err != nil {
							b.Fatal(err)
						}
						out, err := CollectK(j, k)
						if err != nil || len(out) != k {
							b.Fatalf("%d results, %v", len(out), err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkHRJNPull is the rank-join pull path alone, read for k = 50 with
// no hints. shallow/ is a fresh binary HRJN over two sorted 20 000-row
// id-joined inputs: every pull inserts into one hash table and probes the
// other, and the queue stays small. deep/ is one HRJN over two 2 000-row
// inputs joined on 20 keys, the right one's scores a twentieth of the
// left's, reopened every iteration as a compiled tree is per session: its
// queue reaches ~1 500 items, and each run takes its array from the size
// class the run before reached. indexed/ is point-topk's shape: one HRJN over
// descending IndexScans of two stored 20 000-row tables joined on a key of
// selectivity 0.002, read for k = 10 and reopened every iteration, so its
// inputs read scores and keys from the column images.
func BenchmarkHRJNPull(b *testing.B) {
	const k = 50
	b.Run("shallow", func(b *testing.B) {
		const n = 20000
		lsch, ltup := idScored("A", n, 1, true)
		rsch, rtup := idScored("B", n, 2, true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			j := NewHRJN(FromTuples(lsch, ltup), FromTuples(rsch, rtup),
				expr.Col("A", "score"), expr.Col("B", "score"),
				expr.Col("A", "id"), expr.Col("B", "id"), nil)
			out, err := CollectK(j, k)
			if err != nil || len(out) != k {
				b.Fatalf("%d results, %v", len(out), err)
			}
		}
	})
	b.Run("deep", func(b *testing.B) {
		lsch, ltup := keyScored("L", 2000, 20, 1, 1)
		rsch, rtup := keyScored("R", 2000, 20, 0.05, 2)
		j := pairJoins["HRJN"](FromTuples(lsch, ltup), FromTuples(rsch, rtup)).(*HRJN)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := CollectK(j, k)
			if err != nil || len(out) != k {
				b.Fatalf("%d results, %v", len(out), err)
			}
			if q := j.Stats().MaxQueue; q <= 1<<10 {
				b.Fatalf("the queue reached %d items, want a run past 1 024", q)
			}
		}
	})
	b.Run("indexed", func(b *testing.B) {
		j := indexedHRJN(b, 20000)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := CollectK(j, 10)
			if err != nil || len(out) != 10 {
				b.Fatalf("%d results, %v", len(out), err)
			}
		}
	})
}

// indexedHRJN is point-topk's 2-way plan over n-row tables: an HRJN of
// descending score IndexScans of T1 and T2, each scored by a one-term
// ScoreSum of its score column and joined on key.
func indexedHRJN(tb testing.TB, n int) *HRJN {
	tb.Helper()
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: n, Selectivity: 0.002, Seed: 1})
	scan := func(name string) (Operator, expr.Expr, expr.Expr) {
		tab, err := cat.Table(name)
		if err != nil {
			tb.Fatal(err)
		}
		return NewIndexScan(tab.Rel, cat.IndexOn(name, "score"), true),
			expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col(name, "score")}), expr.Col(name, "key")
	}
	l, ls, lk := scan("T1")
	r, rs, rk := scan("T2")
	return NewHRJN(l, r, ls, rs, lk, rk, nil)
}

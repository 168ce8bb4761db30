// Package integration fuzzes the whole stack: random catalogs and queries
// flow through SQL parsing (when expressible), the rank-aware optimizer, plan
// compilation, and execution, and every result is checked against a naive
// reference evaluation built from primitive operators.
package integration

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// referencePlan builds the trusted evaluation: left-deep hash joins in table
// order, filters applied on scans.
func referencePlan(t *testing.T, cat *catalog.Catalog, q *logical.Query) exec.Operator {
	t.Helper()
	var cur exec.Operator
	for i, name := range q.Tables {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		var scan exec.Operator = exec.NewSeqScan(tab.Rel)
		if fs := q.FiltersFor(name); len(fs) > 0 {
			scan = exec.NewFilter(scan, expr.And(fs...))
		}
		if i == 0 {
			cur = scan
			continue
		}
		j := q.Joins[i-1]
		cur = exec.NewHashJoin(cur, scan, j.L, j.R, nil)
	}
	return cur
}

// refTopKScores returns the expected descending score prefix.
func refTopKScores(t *testing.T, cat *catalog.Catalog, q *logical.Query) []float64 {
	t.Helper()
	cur := referencePlan(t, cat, q)
	sorted := exec.NewSortByScore(cur, q.Score)
	k := q.K
	if k == 0 {
		k = 1 << 30
	}
	tuples, err := exec.CollectK(sorted, k)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := q.Score.Bind(sorted.Schema())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(tuples))
	for i, tup := range tuples {
		v, err := ev(tup)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v.AsFloat()
	}
	return out
}

func optimizedScores(t *testing.T, cat *catalog.Catalog, q *logical.Query, opts core.Options) []float64 {
	t.Helper()
	res, err := core.Optimize(cat, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, plan.Explain(res.Best))
	}
	tuples, err := exec.Collect(op)
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, plan.Explain(res.Best))
	}
	out := make([]float64, len(tuples))
	for i, tup := range tuples {
		out[i] = tup[len(tup)-2].AsFloat() // Rank operator's score column
	}
	return out
}

// randomQuery builds a random chain-join ranking query over the tables.
func randomQuery(rng *rand.Rand, names []string) *logical.Query {
	q := &logical.Query{K: 1 + rng.Intn(20)}
	m := 2 + rng.Intn(len(names)-1)
	for i := 0; i < m; i++ {
		name := names[i]
		q.Tables = append(q.Tables, name)
		// Most tables contribute a score term; at least one must.
		if rng.Intn(4) > 0 || i == 0 {
			q.Score.Terms = append(q.Score.Terms, expr.ScoreTerm{
				Weight: 0.1 + rng.Float64(),
				E:      expr.Col(name, "score"),
			})
		}
		if i > 0 {
			q.Joins = append(q.Joins, logical.JoinPred{
				L: expr.Col(names[i-1], "key"), R: expr.Col(name, "key"),
			})
		}
		// Occasional filter.
		if rng.Intn(3) == 0 {
			q.Filters = append(q.Filters, expr.Bin(expr.OpGt,
				expr.Col(name, "score"), expr.FloatLit(rng.Float64()*0.3)))
		}
	}
	return q
}

func TestFuzzRankedQueries(t *testing.T) {
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		sel := []float64{0.01, 0.03, 0.08}[rng.Intn(3)]
		n := 100 + rng.Intn(150)
		cat, names := workload.RankedSet(3, workload.RankedConfig{
			N: n, Selectivity: sel, Seed: int64(trial),
		})
		q := randomQuery(rng, names)
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid query: %v", trial, err)
		}
		want := refTopKScores(t, cat, q)
		opts := core.Options{}
		if rng.Intn(4) == 0 {
			opts.DisableRankAware = true
		}
		got := optimizedScores(t, cat, q, opts)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d: rank %d score %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestFuzzSQLRoundTrip renders random ranked queries as SQL, parses them
// back, and verifies execution matches the reference.
func TestFuzzSQLRoundTrip(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		cat, names := workload.RankedSet(2, workload.RankedConfig{
			N: 200 + rng.Intn(200), Selectivity: 0.05, Seed: int64(trial),
		})
		w1 := 0.1 + float64(rng.Intn(9))/10
		w2 := 0.1 + float64(rng.Intn(9))/10
		k := 1 + rng.Intn(10)
		sql := fmt.Sprintf(
			"SELECT * FROM %s, %s WHERE %s.key = %s.key ORDER BY %.1f*%s.score + %.1f*%s.score DESC LIMIT %d",
			names[0], names[1], names[0], names[1], w1, names[0], w2, names[1], k)
		q, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, sql, err)
		}
		want := refTopKScores(t, cat, q)
		got := optimizedScores(t, cat, q, core.Options{})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d (%s): rank %d mismatch", trial, sql, i)
			}
		}
	}
}

// TestFuzzGroupedQueries checks grouped aggregation against a reference
// hash aggregation over the reference join.
func TestFuzzGroupedQueries(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		cat, names := workload.RankedSet(2, workload.RankedConfig{
			N: 150 + rng.Intn(150), Selectivity: 0.1, Seed: int64(trial),
		})
		q := &logical.Query{
			Tables:  names,
			Joins:   []logical.JoinPred{{L: expr.Col(names[0], "key"), R: expr.Col(names[1], "key")}},
			GroupBy: []expr.ColRef{expr.Col(names[0], "key")},
			Aggs: []logical.AggItem{
				{Func: "COUNT", As: "c"},
				{Func: "AVG", Arg: expr.Col(names[1], "score"), As: "a"},
			},
		}
		res, err := core.Optimize(cat, q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		op, err := plan.Compile(cat, res.Best)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		ref := exec.NewHashAggregate(referencePlan(t, cat, q),
			q.GroupBy, []exec.AggSpec{
				{Func: exec.AggCount, As: "c"},
				{Func: exec.AggAvg, Arg: expr.Col(names[1], "score"), As: "a"},
			})
		want, err := exec.Collect(ref)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, len(got), len(want))
		}
		wantBy := map[int64][2]float64{}
		for _, row := range want {
			wantBy[row[0].AsInt()] = [2]float64{float64(row[1].AsInt()), row[2].AsFloat()}
		}
		for _, row := range got {
			w, ok := wantBy[row[0].AsInt()]
			if !ok {
				t.Fatalf("trial %d: unexpected group %v", trial, row[0])
			}
			if float64(row[1].AsInt()) != w[0] || math.Abs(row[2].AsFloat()-w[1]) > 1e-9 {
				t.Fatalf("trial %d: group %v = %v, want %v", trial, row[0], row, w)
			}
		}
	}
}

package logical

import (
	"testing"

	"rankopt/internal/expr"
)

// q2 builds the paper's Query Q2: three tables, chain joins, rank on a
// weighted sum of one score column per table.
func q2() *Query {
	return &Query{
		Tables: []string{"A", "B", "C"},
		Joins: []JoinPred{
			{L: expr.Col("A", "c2"), R: expr.Col("B", "c1")},
			{L: expr.Col("B", "c2"), R: expr.Col("C", "c2")},
		},
		Score: expr.Sum(
			expr.ScoreTerm{Weight: 0.3, E: expr.Col("A", "c1")},
			expr.ScoreTerm{Weight: 0.3, E: expr.Col("B", "c1")},
			expr.ScoreTerm{Weight: 0.3, E: expr.Col("C", "c1")},
		),
		K: 5,
	}
}

func TestValidateOK(t *testing.T) {
	if err := q2().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]func(*Query){
		"no tables":       func(q *Query) { q.Tables = nil },
		"duplicate table": func(q *Query) { q.Tables = []string{"A", "A", "C"} },
		"unknown join": func(q *Query) {
			q.Joins = append(q.Joins, JoinPred{L: expr.Col("Z", "x"), R: expr.Col("A", "c1")})
		},
		"same-table join": func(q *Query) {
			q.Joins[0] = JoinPred{L: expr.Col("A", "c1"), R: expr.Col("A", "c2")}
		},
		"multi-table filter": func(q *Query) {
			q.Filters = []expr.Expr{expr.Bin(expr.OpEq, expr.Col("A", "c1"), expr.Col("B", "c1"))}
		},
		"unknown filter table": func(q *Query) {
			q.Filters = []expr.Expr{expr.Bin(expr.OpGt, expr.Col("Z", "c1"), expr.IntLit(0))}
		},
		"mixed score term": func(q *Query) {
			q.Score.Terms[0].E = expr.Bin(expr.OpAdd, expr.Col("A", "c1"), expr.Col("B", "c1"))
		},
		"unknown score table": func(q *Query) { q.Score.Terms[0].E = expr.Col("Z", "c1") },
		"negative weight":     func(q *Query) { q.Score.Terms[0].Weight = -1 },
		"negative k":          func(q *Query) { q.K = -2 },
		"disconnected": func(q *Query) {
			q.Joins = q.Joins[:1] // C becomes unreachable
		},
	}
	for name, mutate := range cases {
		q := q2()
		mutate(q)
		if err := q.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestFiltersForAndTableIndex(t *testing.T) {
	q := q2()
	fa := expr.Bin(expr.OpGt, expr.Col("A", "c1"), expr.FloatLit(0.5))
	fb := expr.Bin(expr.OpLt, expr.Col("B", "c2"), expr.FloatLit(2))
	q.Filters = []expr.Expr{fa, fb}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	got := q.FiltersFor("A")
	if len(got) != 1 || !expr.Equal(got[0], fa) {
		t.Fatalf("FiltersFor(A) = %v", got)
	}
	if len(q.FiltersFor("C")) != 0 {
		t.Error("C has no filters")
	}
}

func TestJoinPredString(t *testing.T) {
	j := JoinPred{L: expr.Col("A", "c1"), R: expr.Col("B", "c1")}
	if j.String() != "A.c1 = B.c1" {
		t.Errorf("String = %q", j.String())
	}
	l, r := j.Tables()
	if l != "A" || r != "B" {
		t.Error("Tables mismatch")
	}
}

func TestSingleTableQueryNoJoins(t *testing.T) {
	q := &Query{
		Tables: []string{"A"},
		Score:  expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col("A", "score")}),
		K:      3,
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
}

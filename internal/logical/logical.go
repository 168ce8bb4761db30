// Package logical represents queries after parsing and before physical
// planning: the set of base tables, the equi-join graph, single-table
// filters, the monotone ranking function (a weighted sum with one score
// expression per table), an optional plain order-by, and the top-k bound.
package logical

import (
	"fmt"

	"rankopt/internal/expr"
)

// JoinPred is one equi-join edge of the query's join graph.
type JoinPred struct {
	L, R expr.ColRef
}

// Tables returns the two table names the predicate connects.
func (j JoinPred) Tables() (string, string) { return j.L.Table, j.R.Table }

// String renders "A.c1 = B.c1".
func (j JoinPred) String() string { return j.L.String() + " = " + j.R.String() }

// SelectItem is one output column of the query.
type SelectItem struct {
	E  expr.Expr
	As string
}

// AggFuncs are the aggregate function names the engine understands.
var AggFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "MIN": true, "MAX": true, "AVG": true,
}

// AggItem is one aggregate output column of a grouped query. Arg is nil for
// COUNT(*).
type AggItem struct {
	Func string
	Arg  expr.Expr
	As   string
}

// Query is a parsed, validated query.
type Query struct {
	// Tables are the base table names (aliases equal names in this engine).
	Tables []string
	// Joins is the equi-join graph.
	Joins []JoinPred
	// Filters are single-table predicates, applied below joins.
	Filters []expr.Expr
	// Score is the ranking function; empty Terms means no ranking.
	Score expr.ScoreSum
	// OrderBy is a plain (non-ranking) order column; used when Score is
	// empty. Zero value means no ordering requirement.
	OrderBy expr.ColRef
	// OrderDesc orders OrderBy descending.
	OrderDesc bool
	// K is the number of requested top results; 0 means all.
	K int
	// Select lists the output expressions; empty means "all columns".
	Select []SelectItem
	// GroupBy lists grouping columns; non-empty makes this a grouped query
	// whose output is the group columns followed by Aggs.
	GroupBy []expr.ColRef
	// Aggs are the aggregate outputs of a grouped query.
	Aggs []AggItem
}

// Grouped reports whether the query aggregates over groups.
func (q *Query) Grouped() bool { return len(q.GroupBy) > 0 }

// Ranking reports whether the query asks for ranked (top-k by score) output.
func (q *Query) Ranking() bool { return len(q.Score.Terms) > 0 }

// Validate checks structural consistency: distinct known tables, join
// predicates and filters referencing known tables, score terms confined to
// single known tables, and a connected join graph (the DP enumerator does
// not generate Cartesian products).
func (q *Query) Validate() error {
	if len(q.Tables) == 0 {
		return fmt.Errorf("logical: query has no tables")
	}
	known := map[string]bool{}
	for _, t := range q.Tables {
		if known[t] {
			return fmt.Errorf("logical: duplicate table %q", t)
		}
		known[t] = true
	}
	for _, j := range q.Joins {
		if !known[j.L.Table] || !known[j.R.Table] {
			return fmt.Errorf("logical: join %s references unknown table", j)
		}
		if j.L.Table == j.R.Table {
			return fmt.Errorf("logical: join %s is not cross-table", j)
		}
	}
	for _, f := range q.Filters {
		ts := expr.Tables(f)
		if len(ts) != 1 {
			return fmt.Errorf("logical: filter %s must reference exactly one table", f)
		}
		if !known[ts[0]] {
			return fmt.Errorf("logical: filter %s references unknown table %q", f, ts[0])
		}
	}
	for _, t := range q.Score.Terms {
		tab := t.Table()
		if tab == "" {
			return fmt.Errorf("logical: score term %s must reference exactly one table", t)
		}
		if !known[tab] {
			return fmt.Errorf("logical: score term %s references unknown table %q", t, tab)
		}
		if t.Weight <= 0 {
			return fmt.Errorf("logical: score term %s must have positive weight for monotonicity", t)
		}
	}
	if q.K < 0 {
		return fmt.Errorf("logical: negative k %d", q.K)
	}
	if q.Grouped() {
		if q.Ranking() {
			return fmt.Errorf("logical: GROUP BY cannot be combined with a ranking function")
		}
		if q.OrderBy.Name != "" {
			return fmt.Errorf("logical: GROUP BY with ORDER BY is not supported")
		}
		if len(q.Aggs) == 0 {
			return fmt.Errorf("logical: grouped query needs at least one aggregate")
		}
		for _, g := range q.GroupBy {
			if !known[g.Table] {
				return fmt.Errorf("logical: group column %s references unknown table", g)
			}
		}
		for _, a := range q.Aggs {
			if !AggFuncs[a.Func] {
				return fmt.Errorf("logical: unknown aggregate %q", a.Func)
			}
			if a.Arg == nil {
				if a.Func != "COUNT" {
					return fmt.Errorf("logical: %s requires an argument", a.Func)
				}
				continue
			}
			for _, c := range expr.Columns(a.Arg) {
				if !known[c.Table] {
					return fmt.Errorf("logical: aggregate %s references unknown table %q", a.Func, c.Table)
				}
			}
		}
	} else if len(q.Aggs) > 0 {
		return fmt.Errorf("logical: aggregates require GROUP BY in this engine")
	}
	if len(q.Tables) > 1 && !q.connected() {
		return fmt.Errorf("logical: join graph is not connected")
	}
	return nil
}

// connected reports whether the join graph spans all tables.
func (q *Query) connected() bool {
	adj := map[string][]string{}
	for _, j := range q.Joins {
		adj[j.L.Table] = append(adj[j.L.Table], j.R.Table)
		adj[j.R.Table] = append(adj[j.R.Table], j.L.Table)
	}
	seen := map[string]bool{q.Tables[0]: true}
	stack := []string{q.Tables[0]}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range adj[t] {
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return len(seen) == len(q.Tables)
}

// FiltersFor returns the filters that apply to the given table.
func (q *Query) FiltersFor(table string) []expr.Expr {
	var out []expr.Expr
	for _, f := range q.Filters {
		ts := expr.Tables(f)
		if len(ts) == 1 && ts[0] == table {
			out = append(out, f)
		}
	}
	return out
}

// topksql runs the paper's example queries (Q1 and Q2 in spirit) through
// the SQL front-end: the SQL99 rank() OVER (ORDER BY ...) form is parsed,
// optimized by the rank-aware optimizer, and executed.
package main

import (
	"fmt"
	"log"
	"strings"

	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// Q1 mirrors the paper's Query Q1: a ranking over two of the three joined
// tables, expressed with the SQL99 window syntax.
const q1 = `
WITH RankedT AS (
    SELECT T1.id AS x, T2.id AS y,
           rank() OVER (ORDER BY (0.3*T1.score + 0.7*T2.score)) AS rank
    FROM T1, T2, T3
    WHERE T1.key = T2.key AND T2.key = T3.key)
SELECT x, y, rank FROM RankedT WHERE rank <= 5;`

// Q2 mirrors Query Q2: all three tables contribute to the ranking.
const q2 = `
WITH RankedT AS (
    SELECT T1.id AS x, T2.id AS y, T3.id AS z,
           rank() OVER (ORDER BY (0.3*T1.score + 0.3*T2.score + 0.3*T3.score)) AS rank
    FROM T1, T2, T3
    WHERE T1.key = T2.key AND T2.key = T3.key)
SELECT x, y, z, rank FROM RankedT WHERE rank <= 5;`

func main() {
	cat, _ := workload.RankedSet(3, workload.RankedConfig{
		N: 2000, Selectivity: 0.02, Seed: 3,
	})
	for name, sql := range map[string]string{"Q1": q1, "Q2": q2} {
		fmt.Printf("=== %s ===%s\n", name, sql)
		q, err := sqlparse.Parse(sql)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Optimize(cat, q, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		orders, err := core.InterestingOrders(cat, q, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("-- interesting order expressions (Table 1) --")
		for _, io := range orders {
			fmt.Printf("   %-50s %s\n", io.Expr, strings.Join(io.Reasons, " and "))
		}
		fmt.Println("-- chosen plan --")
		fmt.Print(plan.Explain(res.Best))
		op, err := plan.Compile(cat, res.Best)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := exec.Collect(op)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("-- results --")
		for _, row := range rows {
			var vals []string
			for _, v := range row {
				vals = append(vals, v.String())
			}
			fmt.Println("   " + strings.Join(vals, " | "))
		}
		fmt.Println()
	}
}

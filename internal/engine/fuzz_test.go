package engine_test

// FuzzEngine sends arbitrary SQL through a whole engine session — parse,
// plan cache, optimizer, compile, execution under tiny resource limits —
// over a small three-table catalog. Each input must not panic, must come
// back as an error or as a well-formed result, and must leave the engine
// answering a pinned query byte-identically: a session that fails half-way
// may not poison the plan cache, the pooled operator trees or the shared
// buffer pools for the sessions after it.
//
// CI runs it briefly (make fuzz); the seeds also run in the plain test run.

import (
	"fmt"
	"testing"
	"time"

	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/exec"
	"rankopt/internal/oracle"
	"rankopt/internal/workload"
)

// fuzzSeeds are the sqlparse fuzz targets' seeds, which span the grammar,
// and the planner-facing shapes the differential oracle generates.
var fuzzSeeds = []string{
	`SELECT * FROM A`,
	`SELECT * FROM A, B WHERE A.key = B.key ORDER BY A.score + B.score DESC LIMIT 5`,
	`SELECT A.id AS i FROM A, B WHERE A.key = B.key AND A.id < 10 ORDER BY 0.3 * A.score + 0.7 * B.score DESC LIMIT 3`,
	`WITH R AS (SELECT A.c1 AS x, rank() OVER (ORDER BY 0.5 * A.score + 0.5 * B.score) AS rank FROM A, B WHERE A.k = B.k) SELECT x, rank FROM R WHERE rank <= 10;`,
	`SELECT A.key AS k, COUNT(*) AS n, SUM(A.score) AS s FROM A GROUP BY A.key`,
	`SELECT * FROM A WHERE A.name = 'hello world' OR A.id >= 3 LIMIT 7`,
	`SELECT * FROM A WHERE -A.x + 2.5 * A.y < 10 ORDER BY A.x DESC`,
	`SELECT * FROM A WHERE A.x = (1 < 2)`,
	`SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + 2 * T2.score + T3.score DESC LIMIT 1`,
}

// pinnedSQL is the query every input is followed by.
const pinnedSQL = `SELECT * FROM T1, T2, T3 WHERE T1.key = T2.key AND T2.key = T3.key ORDER BY T1.score + 0.5 * T2.score + T3.score DESC LIMIT 5`

// fuzzLimits are small enough that no input can hold much memory or time.
func fuzzLimits() exec.ResourceLimits {
	return exec.ResourceLimits{
		Deadline:          time.Now().Add(200 * time.Millisecond),
		MaxBufferedTuples: 2000,
		MaxDepthPerInput:  500,
	}
}

// answer renders a response's columns and rows, byte for byte.
func answer(resp engine.Response) string {
	return fmt.Sprintf("%q %v", resp.Columns, resp.Tuples)
}

func FuzzEngine(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(oracle.Generate(seed).SQL)
	}
	cat, _ := workload.RankedSet(3, workload.RankedConfig{N: 40, Selectivity: 0.1, Seed: 11})
	pinned := engine.New(cat, core.Options{}).Run(engine.Request{SQL: pinnedSQL})
	if pinned.Err != nil || len(pinned.Tuples) == 0 {
		f.Fatalf("pinned query: %d rows, err %v", len(pinned.Tuples), pinned.Err)
	}
	want := answer(pinned)
	eng := engine.New(cat, core.Options{})
	f.Fuzz(func(t *testing.T, sql string) {
		resp := eng.Run(engine.Request{SQL: sql, Limits: fuzzLimits()})
		if resp.Err != nil {
			if len(resp.Tuples) != 0 {
				t.Fatalf("failed session returned %d rows with %v\nsql: %q", len(resp.Tuples), resp.Err, sql)
			}
		} else {
			if len(resp.Columns) == 0 {
				t.Fatalf("successful session has no columns\nsql: %q", sql)
			}
			for i, tup := range resp.Tuples {
				if len(tup) != len(resp.Columns) {
					t.Fatalf("row %d has %d values for %d columns\nsql: %q", i, len(tup), len(resp.Columns), sql)
				}
			}
		}
		after := eng.Run(engine.Request{SQL: pinnedSQL})
		if after.Err != nil {
			t.Fatalf("pinned query after %q: %v", sql, after.Err)
		}
		if got := answer(after); got != want {
			t.Fatalf("pinned query changed after %q:\ngot:  %s\nwant: %s", sql, got, want)
		}
	})
}

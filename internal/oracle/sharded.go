package oracle

import (
	"fmt"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
)

// ShardReport summarizes one sharded differential run.
type ShardReport struct {
	SQL string
	// Counts are the shard counts exercised.
	Counts []int
	// Sharded is how many of those runs actually took the scatter-gather
	// path (vs falling back to the single-engine path).
	Sharded int
	// Results is the agreed result count.
	Results int
}

// RunSharded executes the case through full engines — one unsharded, one per
// shard count — and asserts every top-k score sequence agrees with the
// brute-force reference. The catalog is hash-partitioned on the join key, so
// every generated query (chain equi-joins on "key", or on "id" for a TA case)
// is co-partitioned and eligible for the scatter-gather path; a run that
// nonetheless falls back is still checked for correctness but not counted as
// sharded. TA cases run under taChosen, and every engine must execute the TA
// plan.
func RunSharded(c Case, counts ...int) (ShardReport, error) {
	q, err := sqlparse.Parse(c.SQL)
	if err != nil {
		return ShardReport{}, fmt.Errorf("seed %d: parse %q: %w", c.Seed, c.SQL, err)
	}
	want, err := c.reference(q)
	if err != nil {
		return ShardReport{}, err
	}
	col, opts := "key", core.Options{}
	if c.idJoin {
		col, opts = "id", taChosen
	}
	for _, name := range c.names {
		spec := catalog.PartitionSpec{Column: col, Kind: catalog.PartitionHash}
		if err := c.cat.SetPartition(name, spec); err != nil {
			return ShardReport{}, fmt.Errorf("seed %d: partition %s: %w", c.Seed, name, err)
		}
	}

	rep := ShardReport{SQL: c.SQL, Counts: counts, Results: len(want)}
	check := func(label string, eng *engine.Engine, wantSharded bool) error {
		if err := eng.ShardError(); err != nil {
			return fmt.Errorf("seed %d %s: %w", c.Seed, label, err)
		}
		resp := eng.Run(engine.Request{ID: label, SQL: c.SQL})
		if resp.Err != nil {
			return fmt.Errorf("seed %d %s: %w", c.Seed, label, resp.Err)
		}
		got := make([]float64, len(resp.Tuples))
		for i, t := range resp.Tuples {
			// SELECT * keeps the RankAssign layout: score at len-2, rank last.
			got[i] = t[len(t)-2].AsFloat()
		}
		if err := compareScores(want, got); err != nil {
			return fmt.Errorf("seed %d %s: %w\nquery: %s", c.Seed, label, err, c.SQL)
		}
		if c.idJoin && resp.Plan.CountOps(plan.OpRankAgg) == 0 {
			return fmt.Errorf("seed %d %s: engine did not run the TA plan\nquery: %s\n%s",
				c.Seed, label, c.SQL, plan.Explain(resp.Plan))
		}
		if resp.Sharded {
			rep.Sharded++
		} else if wantSharded {
			return fmt.Errorf("seed %d %s: fell back to the single-engine path\nquery: %s",
				c.Seed, label, c.SQL)
		}
		return nil
	}

	single := engine.NewWithConfig(c.cat, engine.Config{Options: opts})
	if err := check("unsharded", single, false); err != nil {
		return ShardReport{}, err
	}
	for _, n := range counts {
		eng := engine.NewWithConfig(c.cat, engine.Config{Options: opts, Shards: n})
		if err := check(fmt.Sprintf("shards=%d", n), eng, true); err != nil {
			return ShardReport{}, err
		}
	}
	return rep, nil
}

package oracle

import (
	"errors"
	"fmt"
	"strings"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/exec"
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
// is co-partitioned and eligible for the scatter-gather path, and a sharded
// engine's session that falls back fails the case. TA cases run under
// taChosen, and every engine must execute the TA plan. Each engine then serves the case at every reuseKs bound after a
// session over a one-tuple budget, so the corpus also runs its pooled trees
// after a failed session and at other k.
func RunSharded(c Case, counts ...int) (ShardReport, error) {
	q, err := sqlparse.Parse(c.SQL)
	if err != nil {
		return ShardReport{}, fmt.Errorf("seed %d: parse %q: %w", c.Seed, c.SQL, err)
	}
	ks := reuseKs(c.K)
	// The largest bound's reference holds every smaller one's as its prefix.
	top := c
	top.K = ks[len(ks)-1]
	full, err := top.reference(q)
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

	rep := ShardReport{SQL: c.SQL, Counts: counts, Results: min(c.K, len(full))}
	check := func(label string, eng *engine.Engine, wantSharded bool) error {
		if err := eng.ShardError(); err != nil {
			return fmt.Errorf("seed %d %s: %w", c.Seed, label, err)
		}
		// The first session at the case's k; then, at each reuseKs bound, one
		// over a one-tuple budget and one that takes the tree it handed back.
		for i, k := range append([]int{c.K}, ks...) {
			sql := strings.TrimSuffix(c.SQL, fmt.Sprintf(" LIMIT %d", c.K)) + fmt.Sprintf(" LIMIT %d", k)
			limits := []exec.ResourceLimits{{}}
			if i > 0 {
				limits = []exec.ResourceLimits{{MaxBufferedTuples: 1}, {}}
			}
			for _, l := range limits {
				at := fmt.Sprintf("%s k=%d budget=%d", label, k, l.MaxBufferedTuples)
				resp := eng.Run(engine.Request{ID: at, SQL: sql, Limits: l})
				if l.Enabled() && errors.Is(resp.Err, exec.ErrBudgetExceeded) {
					continue
				}
				if resp.Err != nil {
					return fmt.Errorf("seed %d %s: %w", c.Seed, at, resp.Err)
				}
				if err := compareScores(full[:min(k, len(full))], rowScores(resp.Tuples)); err != nil {
					return fmt.Errorf("seed %d %s: %w\nquery: %s", c.Seed, at, err, sql)
				}
				if c.idJoin && resp.Plan.CountOps(plan.OpRankAgg) == 0 {
					return fmt.Errorf("seed %d %s: engine did not run the TA plan\nquery: %s\n%s",
						c.Seed, at, sql, plan.Explain(resp.Plan))
				}
				if resp.Sharded != wantSharded {
					return fmt.Errorf("seed %d %s: sharded = %v\nquery: %s", c.Seed, at, resp.Sharded, sql)
				}
			}
		}
		if wantSharded {
			rep.Sharded++
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

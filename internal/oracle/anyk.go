package oracle

import (
	"fmt"

	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
)

// AnyKReport summarizes one any-k differential run.
type AnyKReport struct {
	SQL string
	// AnyKPlans is how many enumerated alternatives contained an AnyK
	// operator; every one executed and agreed with brute force.
	AnyKPlans int
	// Results is the agreed result count.
	Results int
}

// anyKOnly are RunAnyK's optimizer options: every plan collected, the
// competing ranked operators disabled.
var anyKOnly = core.Options{
	CollectAllPlans:      true,
	DisableHRJN:          true,
	DisableNRJN:          true,
	DisableRankAggregate: true,
}

// RunAnyK is the any-k-focused differential pass: optimize the case with the
// competing ranked operators disabled (HRJN, NRJN, and the TA aggregate) so
// the any-k enumerator must carry the ranked property class, assert the
// enumeration actually produced AnyK plans — a silent fallback to sort plans
// would turn this harness into a no-op — and execute every AnyK-bearing plan
// through both the batch and the scalar-reference drains against the
// brute-force answer.
func RunAnyK(c Case) (AnyKReport, error) {
	q, err := sqlparse.Parse(c.SQL)
	if err != nil {
		return AnyKReport{}, fmt.Errorf("seed %d: parse %q: %w", c.Seed, c.SQL, err)
	}
	want, err := c.reference(q)
	if err != nil {
		return AnyKReport{}, err
	}

	res, err := core.Optimize(c.cat, q, anyKOnly)
	if err != nil {
		return AnyKReport{}, fmt.Errorf("seed %d: optimize %q: %w", c.Seed, c.SQL, err)
	}
	anyk := 0
	for pi, root := range res.AllPlans {
		if root.CountOps(plan.OpAnyK) == 0 {
			continue
		}
		anyk++
		if err := c.checkPlan(root, want); err != nil {
			return AnyKReport{}, fmt.Errorf("seed %d anyk plan %d: %w\nquery: %s\n%s",
				c.Seed, pi, err, c.SQL, plan.Explain(root))
		}
	}
	if anyk == 0 {
		return AnyKReport{}, fmt.Errorf("seed %d: no AnyK plan enumerated — silent fallback\nquery: %s\nbest:\n%s",
			c.Seed, c.SQL, plan.Explain(res.Best))
	}
	return AnyKReport{SQL: c.SQL, AnyKPlans: anyk, Results: len(want)}, nil
}

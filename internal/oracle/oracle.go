// Package oracle is the differential-testing harness for the optimizer and
// executor: it generates random multi-way top-k rank-join queries over
// seeded synthetic data, executes EVERY plan the optimizer enumerated (not
// just the winner), computes the answer a trusted brute-force evaluator
// produces, and asserts that all of them agree on the top-k score sequence.
// Plan-enumeration bugs, rank-join threshold bugs, enforcer bugs, and cost
// model crashes all surface as a disagreement with a one-line reproducer
// (the seed).
package oracle

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/relation"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// Case is one generated oracle scenario: a catalog and a query over it.
type Case struct {
	// Seed reproduces the case completely.
	Seed int64
	// SQL is the generated query text.
	SQL string
	// Tables is the join width (2..4).
	Tables int
	// K is the LIMIT bound.
	K int

	cat   *catalog.Catalog
	names []string
	// idJoin marks a GenerateTA case: (id, score) lists joined on id.
	idJoin bool
}

// Report summarizes one successful differential run.
type Report struct {
	SQL string
	// Plans is how many alternatives were executed and cross-checked.
	Plans int
	// Results is the agreed result count (min(k, join size)).
	Results int
	// GreedyFallback reports whether the greedy planner cross-check fell
	// back to the DP for this case (single-table shapes do).
	GreedyFallback bool
	// TAPlans is how many of the executed plans carried the TA operator.
	TAPlans int
}

// scoreTerm is one weighted table contribution of the generated query.
type scoreTerm struct {
	table  string
	weight float64
}

// Generate builds a random case from the seed: 2–4 tables (narrower tables
// for wider joins), varying join selectivity and score distribution, chain
// equi-joins on the shared key column, weighted descending score, LIMIT
// 1–15, and sometimes a single-table filter.
func Generate(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(3)
	// Row counts shrink as join width grows: the expected join output is
	// about n^m * sel^(m-1) and every sort-based alternative materializes it
	// in full, so these caps keep the worst case near 20k tuples — small
	// enough that executing every enumerated plan across the whole corpus
	// stays in seconds.
	var n int
	switch m {
	case 2:
		n = 50 + rng.Intn(151)
	case 3:
		n = 30 + rng.Intn(51)
	default:
		n = 20 + rng.Intn(21)
	}
	sel := []float64{0.02, 0.05, 0.1, 0.2}[rng.Intn(4)]
	dist := []workload.ScoreDist{
		workload.DistUniform, workload.DistGaussian,
		workload.DistPowerLow, workload.DistPowerHigh,
	}[rng.Intn(4)]
	cat, names := workload.RankedSet(m, workload.RankedConfig{
		N: n, Selectivity: sel, Seed: seed * 31, Dist: dist,
	})

	var b strings.Builder
	b.WriteString("SELECT * FROM ")
	b.WriteString(strings.Join(names, ", "))
	b.WriteString(" WHERE ")
	var conjs []string
	for i := 1; i < m; i++ {
		conjs = append(conjs, fmt.Sprintf("%s.key = %s.key", names[i-1], names[i]))
	}
	var filterTable string
	var filterIDBound int64
	if rng.Intn(3) == 0 {
		// A single-table filter on the unique id column: selectivity is
		// exact and the brute-force evaluator applies the same cut.
		filterTable = names[rng.Intn(m)]
		filterIDBound = int64(n/2 + rng.Intn(n/2))
		conjs = append(conjs, fmt.Sprintf("%s.id < %d", filterTable, filterIDBound))
	}
	b.WriteString(strings.Join(conjs, " AND "))
	b.WriteString(" ORDER BY ")
	terms := make([]scoreTerm, m)
	var parts []string
	for i, name := range names {
		w := []float64{0.5, 1, 1.5, 2}[rng.Intn(4)]
		terms[i] = scoreTerm{table: name, weight: w}
		if w == 1 {
			parts = append(parts, name+".score")
		} else {
			// 'f' format keeps the literal lexable (no exponent notation).
			parts = append(parts, strconv.FormatFloat(w, 'f', -1, 64)+" * "+name+".score")
		}
	}
	b.WriteString(strings.Join(parts, " + "))
	k := 1 + rng.Intn(15)
	fmt.Fprintf(&b, " DESC LIMIT %d", k)

	return Case{Seed: seed, SQL: b.String(), Tables: m, K: k, cat: cat, names: names}
}

// bruteForce computes the reference top-k score sequence: join every table
// combination sharing a key (applying the query's filters), sum the weighted
// scores, sort descending, cut at k. Plain Go over raw tuples — no operator
// under test participates.
func (c Case) bruteForce(terms []scoreTerm, filters map[string]int64) ([]float64, error) {
	// Schema is (id, key, score), or (id, score) joined on id.
	key, score := 1, 2
	if c.idJoin {
		key, score = 0, 1
	}
	// Group each table's (weighted score) contributions by key.
	byKey := make([]map[int64][]float64, len(c.names))
	for i, name := range c.names {
		tab, err := c.cat.Table(name)
		if err != nil {
			return nil, err
		}
		groups := map[int64][]float64{}
		for _, t := range tab.Rel.Tuples() {
			if bound, ok := filters[name]; ok && t[0].AsInt() >= bound {
				continue
			}
			groups[t[key].AsInt()] = append(groups[t[key].AsInt()], terms[i].weight*t[score].AsFloat())
		}
		byKey[i] = groups
	}
	var scores []float64
	for key, base := range byKey[0] {
		partials := base
		for i := 1; i < len(byKey); i++ {
			next := byKey[i][key]
			if len(next) == 0 {
				partials = nil
				break
			}
			grown := make([]float64, 0, len(partials)*len(next))
			for _, p := range partials {
				for _, v := range next {
					grown = append(grown, p+v)
				}
			}
			partials = grown
		}
		scores = append(scores, partials...)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if len(scores) > c.K {
		scores = scores[:c.K]
	}
	return scores, nil
}

// reference recovers the generated weights and filters from the parsed query
// (so the reference cannot drift from what the engine actually executes) and
// computes the brute-force top-k score sequence.
func (c Case) reference(q *logical.Query) ([]float64, error) {
	terms := make([]scoreTerm, 0, len(q.Score.Terms))
	for _, t := range q.Score.Terms {
		terms = append(terms, scoreTerm{table: t.Table(), weight: t.Weight})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].table < terms[j].table })
	filters := map[string]int64{}
	for _, f := range q.Filters {
		// Generated filters are always "T.id < bound".
		bin, ok := f.(expr.Binary)
		if !ok || bin.Op != expr.OpLt {
			return nil, fmt.Errorf("seed %d: unexpected filter %q", c.Seed, f.String())
		}
		col, okL := bin.L.(expr.ColRef)
		cst, okR := bin.R.(expr.Const)
		if !okL || !okR {
			return nil, fmt.Errorf("seed %d: unexpected filter shape %q", c.Seed, f.String())
		}
		filters[col.Table] = cst.V.AsInt()
	}
	want, err := c.bruteForce(terms, filters)
	if err != nil {
		return nil, fmt.Errorf("seed %d: brute force: %w", c.Seed, err)
	}
	return want, nil
}

// Run parses, optimizes with every alternative retained, executes each plan,
// and compares every score sequence against the brute-force reference.
// A nil error means all plans agreed.
func Run(c Case) (Report, error) {
	q, err := sqlparse.Parse(c.SQL)
	if err != nil {
		return Report{}, fmt.Errorf("seed %d: parse %q: %w", c.Seed, c.SQL, err)
	}
	want, err := c.reference(q)
	if err != nil {
		return Report{}, err
	}

	res, err := core.Optimize(c.cat, q, core.Options{CollectAllPlans: true})
	if err != nil {
		return Report{}, fmt.Errorf("seed %d: optimize %q: %w", c.Seed, c.SQL, err)
	}
	if len(res.AllPlans) == 0 {
		return Report{}, fmt.Errorf("seed %d: optimizer returned no plans", c.Seed)
	}
	rep := Report{SQL: c.SQL, Plans: len(res.AllPlans), Results: len(want)}
	for pi, root := range res.AllPlans {
		rep.TAPlans += min(root.CountOps(plan.OpRankAgg), 1)
		if err := c.checkPlan(root, want); err != nil {
			return Report{}, fmt.Errorf("seed %d plan %d/%d: %w\nquery: %s\n%s",
				c.Seed, pi, len(res.AllPlans), err, c.SQL, plan.Explain(root))
		}
	}

	// Greedy cross-check: the fast-path planner must agree with brute force
	// on every corpus case (the plan may differ from the DP's; the answer
	// may not).
	gres, err := core.Optimize(c.cat, q, core.Options{Planner: core.PlannerGreedy})
	if err != nil {
		return Report{}, fmt.Errorf("seed %d: greedy optimize %q: %w", c.Seed, c.SQL, err)
	}
	gop, err := plan.Compile(c.cat, gres.Best)
	if err != nil {
		return Report{}, fmt.Errorf("seed %d: greedy compile: %w\n%s", c.Seed, err, plan.Explain(gres.Best))
	}
	gtuples, err := exec.Collect(gop)
	if err != nil {
		return Report{}, fmt.Errorf("seed %d: greedy execute: %w\n%s", c.Seed, err, plan.Explain(gres.Best))
	}
	if err := compareScores(want, rowScores(gtuples)); err != nil {
		return Report{}, fmt.Errorf("seed %d: greedy plan: %w\nquery: %s\n%s",
			c.Seed, err, c.SQL, plan.Explain(gres.Best))
	}

	rep.GreedyFallback = gres.GreedyFallback
	return rep, nil
}

// checkPlan executes one plan twice — batch-at-a-time (the production drain)
// and as the scalar reference executor (ScalarRef compile, one tuple per
// Next) — from two independent compilations, so leftover operator state
// cannot mask a divergence. The batch result is checked against the
// brute-force scores want; the reference result must match it
// tuple-for-tuple, value-for-value. The reference side keeps
// pre-vectorization internals (interface-keyed hash-join build), so this also
// differentially tests the open-addressing numeric table against an
// independent implementation on every generated plan.
func (c Case) checkPlan(root *plan.Node, want []float64) error {
	op, err := plan.Compile(c.cat, root)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	tuples, err := exec.Collect(op)
	if err != nil {
		return fmt.Errorf("execute: %w", err)
	}
	opRef, err := plan.CompileWith(c.cat, root, plan.Config{ScalarRef: true})
	if err != nil {
		return fmt.Errorf("recompile: %w", err)
	}
	ref, err := exec.CollectPerTupleCtx(context.Background(), opRef)
	if err != nil {
		return fmt.Errorf("per-tuple execute: %w", err)
	}
	if err := compareTuples(ref, tuples); err != nil {
		return fmt.Errorf("batch vs per-tuple: %w", err)
	}
	return compareScores(want, rowScores(tuples))
}

// rowScores extracts each answer row's score: SELECT * keeps the RankAssign
// layout, score at len-2, rank last.
func rowScores(tuples []relation.Tuple) []float64 {
	got := make([]float64, len(tuples))
	for i, t := range tuples {
		got[i] = t[len(t)-2].AsFloat()
	}
	return got
}

// compareTuples asserts two result sets are identical: same count, same
// order, same arity, every value Equal. Used for the batch-vs-per-tuple
// cross-check, where the two drains execute the same plan and any difference
// at all is an executor bug.
func compareTuples(want, got []relation.Tuple) error {
	if len(want) != len(got) {
		return fmt.Errorf("row count mismatch: per-tuple %d, batch %d", len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			return fmt.Errorf("row %d arity mismatch: per-tuple %d, batch %d", i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if !want[i][j].Equal(got[i][j]) {
				return fmt.Errorf("row %d column %d mismatch: per-tuple %v, batch %v",
					i, j, want[i][j], got[i][j])
			}
		}
	}
	return nil
}

// compareScores asserts two descending score sequences match element-wise
// within floating-point tolerance.
func compareScores(want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("result count mismatch: brute force %d, plan %d (want %v, got %v)",
			len(want), len(got), head(want), head(got))
	}
	for i := range want {
		diff := math.Abs(want[i] - got[i])
		scale := math.Max(math.Abs(want[i]), 1)
		if diff > 1e-9*scale {
			return fmt.Errorf("score %d mismatch: brute force %.12f, plan %.12f", i, want[i], got[i])
		}
	}
	return nil
}

// head truncates a slice for error display.
func head(s []float64) []float64 {
	if len(s) > 5 {
		return s[:5]
	}
	return s
}

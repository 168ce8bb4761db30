package oracle

import (
	"fmt"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// inventorySource is one way of asking the optimizer for plans; counts[op]
// is how many plan nodes of each operator type its plans contained.
type inventorySource struct {
	name string
	// defaults marks sources that make no non-default planning choice.
	// CollectAllPlans only returns what the default enumeration produced, so
	// it counts as default; KeepAllPlans, the Disable* switches, the greedy
	// planner and UseTopKSort change what is produced and do not.
	defaults bool
	counts   map[plan.OpType]int
}

// record optimizes sql, compiles every plan the optimizer returned (AllPlans
// when collected, otherwise Best) and counts their operators under src. It
// returns this query's counts alone.
func record(t *testing.T, src *inventorySource, cat *catalog.Catalog, sql string, opts core.Options) map[plan.OpType]int {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: parse %q: %v", src.name, sql, err)
	}
	res, err := core.Optimize(cat, q, opts)
	if err != nil {
		t.Fatalf("%s: optimize %q: %v", src.name, sql, err)
	}
	plans := res.AllPlans
	if len(plans) == 0 {
		plans = []*plan.Node{res.Best}
	}
	seen := map[plan.OpType]int{}
	for _, root := range plans {
		if _, err := plan.Compile(cat, root); err != nil {
			t.Fatalf("%s: compile: %v\nquery: %s\n%s", src.name, err, sql, plan.Explain(root))
		}
		root.Walk(func(n *plan.Node) {
			src.counts[n.Op]++
			seen[n.Op]++
		})
	}
	return seen
}

// opTypes lists every operator the plan package names, in declaration order.
func opTypes() []plan.OpType {
	var ops []plan.OpType
	for op := plan.OpType(0); op.String() != ""; op++ {
		ops = append(ops, op)
	}
	return ops
}

// inventoryShape is a fixed query whose plans contain an operator the
// generated corpus never emits.
type inventoryShape struct {
	op   plan.OpType
	cat  *catalog.Catalog
	sql  string
	opts core.Options
}

func inventoryShapes() []inventoryShape {
	join, _ := workload.RankedSet(2, workload.RankedConfig{N: 600, Selectivity: 0.05, Seed: 214})
	selective, _ := workload.RankedSet(2, workload.RankedConfig{N: 2000, Selectivity: 0.001, Seed: 214})
	groups, _ := workload.RankedSet(1, workload.RankedConfig{N: 20000, Selectivity: 0.001, Seed: 215})
	sargable, _ := workload.RankedSet(1, workload.RankedConfig{N: 50000, Selectivity: 0.0005, Seed: 219})
	corpus, f := workload.Corpus(workload.CorpusConfig{Objects: 1000, Features: 2, Seed: 29})
	return []inventoryShape{
		{op: plan.OpHashAgg, cat: join,
			sql: "SELECT T1.key, COUNT(*) AS cnt, SUM(T2.score) AS total FROM T1, T2 WHERE T1.key = T2.key GROUP BY T1.key"},
		{op: plan.OpSortAgg, cat: groups,
			sql: "SELECT T1.key, MAX(T1.score) AS m FROM T1 GROUP BY T1.key LIMIT 3"},
		{op: plan.OpProject, cat: join,
			sql: "SELECT T1.id, T2.id FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5"},
		{op: plan.OpIndexRange, cat: sargable,
			sql: "SELECT * FROM T1 WHERE T1.key = 7 ORDER BY T1.score DESC LIMIT 3"},
		{op: plan.OpINLJ, cat: selective,
			sql: "SELECT * FROM T1, T2 WHERE T1.key = T2.key AND T1.id = 7"},
		{op: plan.OpRankAgg, cat: corpus,
			sql: fmt.Sprintf("SELECT * FROM %[1]s, %[2]s WHERE %[1]s.id = %[2]s.id ORDER BY %[1]s.score + %[2]s.score DESC LIMIT 10", f[0], f[1])},
		{op: plan.OpTopK, cat: join,
			sql:  "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 7",
			opts: core.Options{UseTopKSort: true}},
	}
}

// TestOperatorInventory is the operator census: every plan.OpType must be
// emitted by core.Optimize from a known source and compile through
// plan.Compile. The sources are the oracle corpus (all plans under default
// options, all plans with only AnyK ranked — RunAnyK's options — the greedy
// planner's choice, and every unpruned plan of the ≤ 3-way seeds) plus fixed
// shapes for the operators the corpus cannot produce: grouping, SELECT lists,
// sargable filters, selective unranked joins, unique-id joins and
// UseTopKSort. The operators only a non-default option reaches are pinned, so
// a new option-only operator fails here until someone decides to keep it.
func TestOperatorInventory(t *testing.T) {
	var sources []*inventorySource
	source := func(name string, defaults bool) *inventorySource {
		s := &inventorySource{name: name, defaults: defaults, counts: map[plan.OpType]int{}}
		sources = append(sources, s)
		return s
	}
	corpus := source("corpus", true)
	anyk := source("any-k only", false)
	greedy := source("greedy", false)
	keepAll := source("keep-all ≤3-way", false)
	for seed := int64(1); seed <= int64(corpusSize()); seed++ {
		c := Generate(seed)
		record(t, corpus, c.cat, c.SQL, core.Options{CollectAllPlans: true})
		record(t, anyk, c.cat, c.SQL, anyKOnly)
		record(t, greedy, c.cat, c.SQL, core.Options{Planner: core.PlannerGreedy})
		if c.Tables <= 3 {
			record(t, keepAll, c.cat, c.SQL, core.Options{CollectAllPlans: true, KeepAllPlans: true})
		}
	}
	shapes := source("fixed shapes", true)
	topK := source("UseTopKSort", false)
	for _, s := range inventoryShapes() {
		src := shapes
		if s.opts.UseTopKSort {
			src = topK
		}
		opts := s.opts
		opts.CollectAllPlans = true
		if record(t, src, s.cat, s.sql, opts)[s.op] == 0 {
			t.Errorf("the %s shape emitted no %s: %s", src.name, s.op, s.sql)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%-16s", "operator")
	for _, s := range sources {
		fmt.Fprintf(&b, " %16s", s.name)
	}
	b.WriteByte('\n')
	reached := map[plan.OpType]bool{}
	byDefault := map[plan.OpType]bool{}
	for _, op := range opTypes() {
		fmt.Fprintf(&b, "%-16s", op)
		for _, s := range sources {
			n := s.counts[op]
			fmt.Fprintf(&b, " %16d", n)
			if n > 0 {
				reached[op] = true
				byDefault[op] = byDefault[op] || s.defaults
			}
		}
		b.WriteByte('\n')
	}
	t.Logf("plan nodes per operator and source (%d corpus seeds):\n%s", corpusSize(), b.String())

	var optionOnly []string
	for _, op := range opTypes() {
		switch {
		case !reached[op]:
			t.Errorf("%s: no source emits it", op)
		case !byDefault[op]:
			optionOnly = append(optionOnly, op.String())
		}
	}
	if got := strings.Join(optionOnly, ","); got != plan.OpTopK.String() {
		t.Errorf("operators only a non-default option reaches = {%s}, want {%s}", got, plan.OpTopK)
	}
}

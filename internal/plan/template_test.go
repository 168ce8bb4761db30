package plan_test

import (
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// optimizeSQL is the test helper for getting a real optimized plan to wrap.
func optimizeSQL(t *testing.T, sql string) (*plan.Node, int) {
	t.Helper()
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 1000, Selectivity: 0.02, Seed: 21})
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Optimize(cat, q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Best, q.K
}

const templateSQL = "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC LIMIT 5"

// Instantiate must hand out trees that are structurally identical to the
// original but share no Node storage, so per-session mutation (depth hints,
// execution) cannot leak across sessions or back into the cached template.
func TestTemplateInstantiateIsolates(t *testing.T) {
	root, k := optimizeSQL(t, templateSQL)
	want := plan.Explain(root)
	tmpl := plan.NewTemplate(root, k, plan.PlanCounters{Generated: 10, Kept: 5})
	a := tmpl.Instantiate(k)
	b := tmpl.Instantiate(k)
	if a == b {
		t.Fatal("Instantiate returned the same tree twice")
	}
	if plan.Explain(a) != want || plan.Explain(b) != want {
		t.Errorf("instantiated plan diverges from the template:\n%s\nvs\n%s", plan.Explain(a), want)
	}
	// Mutating one instance must not show through siblings or future
	// instantiations.
	a.Card = -1
	a.Children = nil
	if b.Card == -1 {
		t.Error("instances share Node storage")
	}
	if got := plan.Explain(tmpl.Instantiate(k)); got != want {
		t.Errorf("template corrupted by instance mutation:\n%s\nwant\n%s", got, want)
	}
}

// Clone must deep-copy the node structs at every level.
func TestCloneIsDeep(t *testing.T) {
	root, _ := optimizeSQL(t, templateSQL)
	c := root.Clone()
	var walk func(a, b *plan.Node)
	walk = func(a, b *plan.Node) {
		if a == b {
			t.Fatalf("clone shares node %v", a.Op)
		}
		if len(a.Children) != len(b.Children) {
			t.Fatalf("clone changed arity at %v", a.Op)
		}
		for i := range a.Children {
			walk(a.Children[i], b.Children[i])
		}
	}
	walk(root, c)
	if plan.Explain(root) != plan.Explain(c) {
		t.Error("clone renders differently")
	}
}

// kBearing collects the K values of every Limit/TopK/RankAgg node.
func kBearing(n *plan.Node) []int {
	var ks []int
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		switch n.Op {
		case plan.OpLimit, plan.OpTopK, plan.OpRankAgg:
			ks = append(ks, n.K)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return ks
}

// RebindK must patch the new bound into every k-bearing operator of the
// instance while the template keeps serving its original bound.
func TestRebindKPatchesBounds(t *testing.T) {
	root, k := optimizeSQL(t, templateSQL)
	tmpl := plan.NewTemplate(root, k, plan.PlanCounters{})
	re := kBearing(tmpl.Instantiate(12))
	if len(re) == 0 {
		t.Fatal("plan has no k-bearing operator to rebind")
	}
	for _, got := range re {
		if got != 12 {
			t.Errorf("k-bearing operator still bound to %d after rebinding to 12", got)
		}
	}
	for _, got := range kBearing(tmpl.Instantiate(k)) {
		if got != k {
			t.Errorf("template lost its original bound: got %d, want %d", got, k)
		}
	}
}

// Every rank join of an instantiated plan must get positive depth estimates
// at the demand Algorithm Propagate gives it — what EXPLAIN ANALYZE prints.
func TestInstantiateAnnotatesDepthHints(t *testing.T) {
	root, k := optimizeSQL(t, templateSQL)
	inst := plan.NewTemplate(root, k, plan.PlanCounters{}).Instantiate(k)
	var sawJoin bool
	plan.PropagateK(inst, float64(k), func(n *plan.Node, nk float64) {
		if n.Op.IsRankJoin() {
			sawJoin = true
			if dL, dR := n.Depths(nk); dL <= 0 || dR <= 0 {
				t.Errorf("%v has empty depth estimates (dL=%v dR=%v)", n.Op, dL, dR)
			}
		}
	})
	if !sawJoin {
		t.Skip("optimizer chose a plan without a rank join on this workload")
	}
}

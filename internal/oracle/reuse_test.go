package oracle

import (
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/plan"
)

// TestTreeReuseCorpus serves consecutive sessions at changing k from one
// compiled tree per enumerated plan — with a session failing mid-drain
// before each — over the corpus shapes: the id-join cases for TA, and the
// chain-join cases under the default options, with TopK sorts and with only
// the any-k enumerator ranking. Every session must answer exactly like a
// fresh compile and like brute force (RunReuse), and the corpus must reach
// every operator family a template's trees are built from.
func TestTreeReuseCorpus(t *testing.T) {
	n := corpusSize()
	if raceBuild {
		n = min(n, 40)
	}
	variants := []core.Options{{}, {UseTopKSort: true}, anyKOnly}
	total := ReuseReport{Ops: map[plan.OpType]int{}}
	for seed := int64(1); seed <= int64(n); seed++ {
		cases := []Case{Generate(seed), GenerateTA(seed)}
		opts := []core.Options{variants[seed%int64(len(variants))], {}}
		for i, c := range cases {
			rep, err := RunReuse(c, opts[i])
			if err != nil {
				writeReproducer(t, c, err)
				t.Fatalf("reused tree disagreement: %v", err)
			}
			total.Plans += rep.Plans
			total.Failed += rep.Failed
			for op, m := range rep.Ops {
				total.Ops[op] += m
			}
		}
	}
	t.Logf("reuse: %d plans, %d failing sessions failed", total.Plans, total.Failed)
	for _, op := range []plan.OpType{plan.OpHRJN, plan.OpNRJN, plan.OpAnyK, plan.OpRankAgg, plan.OpSort, plan.OpTopK, plan.OpHashJoin} {
		if total.Ops[op] == 0 {
			t.Errorf("no %v plan served reused sessions", op)
		}
	}
	if total.Failed == 0 {
		t.Error("no failing session failed")
	}
}

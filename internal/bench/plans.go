package bench

import (
	"fmt"
	"math/rand"

	"rankopt/internal/catalog"
	"rankopt/internal/costmodel"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

var params = costmodel.Default()

// twoRelPlans builds the two alternatives of Figures 1 and 6 as cost-model
// plan trees over two ranked relations of cardinality n joined with
// selectivity s:
//
//   - the sort plan: Sort(HashJoin(SeqScan, SeqScan)) — blocking,
//     k-independent;
//   - the rank-join plan: HRJN over descending score index scans —
//     pipelined, costed through the depth model.
func twoRelPlans(n, s float64) (sortPlan, rankPlan *plan.Node) {
	mkSeq := func(t string) *plan.Node {
		return &plan.Node{Op: plan.OpSeqScan, Table: t, Card: n, P: &params,
			Props: plan.Props{Order: plan.NoOrder, Pipelined: true}}
	}
	mkIdx := func(t string) *plan.Node {
		return &plan.Node{Op: plan.OpIndexScan, Table: t, IndexDesc: true,
			Card: n, LSlab: 1 / n, P: &params,
			Props: plan.Props{Order: plan.RankOrder(t), Pipelined: true}}
	}
	eq := []logical.JoinPred{{L: expr.Col("L", "key"), R: expr.Col("R", "key")}}
	score := func(t string) expr.ScoreSum {
		return expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col(t, "score")})
	}
	join := &plan.Node{
		Op:       plan.OpHashJoin,
		Children: []*plan.Node{mkSeq("L"), mkSeq("R")},
		EqPreds:  eq,
		Card:     s * n * n,
		Sel:      s,
		P:        &params,
	}
	sortPlan = &plan.Node{
		Op:       plan.OpSort,
		Children: []*plan.Node{join},
		SortKeys: []exec.SortKey{{E: expr.Bin(expr.OpAdd, expr.Col("L", "score"), expr.Col("R", "score")), Desc: true}},
		Card:     join.Card,
		P:        &params,
		Props:    plan.Props{Order: plan.RankOrder("L", "R")},
	}
	rankPlan = &plan.Node{
		Op:       plan.OpHRJN,
		Children: []*plan.Node{mkIdx("L"), mkIdx("R")},
		EqPreds:  eq,
		LScore:   score("L"),
		RScore:   score("R"),
		Card:     s * n * n,
		Sel:      s,
		LLeaves:  1, RLeaves: 1,
		LSlab: 1 / n, RSlab: 1 / n,
		P:     &params,
		Props: plan.Props{Order: plan.RankOrder("L", "R"), Pipelined: true},
	}
	return sortPlan, rankPlan
}

// planP is the executable version of the paper's Plan P (Figure 11): a
// balanced tree of three HRJN operators over four ranked inputs, each input
// delivered by a descending score scan.
type planP struct {
	top, left, right *exec.HRJN
	cat              *catalog.Catalog
	n                int
	s                float64
	slab             float64
}

// buildPlanP generates four ranked relations with the target join
// selectivity and wires up the operator tree.
func buildPlanP(n int, s float64, seed int64) *planP {
	return buildPlanPDist(n, s, seed, workload.DistUniform)
}

// buildPlanPDist is buildPlanP with a configurable score distribution.
func buildPlanPDist(n int, s float64, seed int64, dist workload.ScoreDist) *planP {
	cat, names := workload.RankedSet(4, workload.RankedConfig{N: n, Selectivity: s, Seed: seed, Dist: dist})
	scan := func(name string) exec.Operator {
		tab, err := cat.Table(name)
		if err != nil {
			panic(err)
		}
		return exec.NewIndexScan(tab.Rel, cat.IndexOn(name, "score"), true)
	}
	score := func(name string) expr.Expr {
		return expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col(name, "score")})
	}
	pairScore := func(a, b string) expr.Expr {
		return expr.Sum(
			expr.ScoreTerm{Weight: 1, E: expr.Col(a, "score")},
			expr.ScoreTerm{Weight: 1, E: expr.Col(b, "score")},
		)
	}
	left := exec.NewHRJN(scan(names[0]), scan(names[1]),
		score(names[0]), score(names[1]),
		expr.Col(names[0], "key"), expr.Col(names[1], "key"), nil)
	right := exec.NewHRJN(scan(names[2]), scan(names[3]),
		score(names[2]), score(names[3]),
		expr.Col(names[2], "key"), expr.Col(names[3], "key"), nil)
	top := exec.NewHRJN(left, right,
		pairScore(names[0], names[1]), pairScore(names[2], names[3]),
		expr.Col(names[0], "key"), expr.Col(names[2], "key"), nil)
	slab := cat.ColStats(names[0], "score").Slab
	return &planP{top: top, left: left, right: right, cat: cat, n: n, s: s, slab: slab}
}

// run pulls k results from the top operator and returns the measured stats
// of the three rank-joins.
func (p *planP) run(k int) (top, left, right exec.RankJoinStats, err error) {
	if _, err = exec.CollectK(p.top, k); err != nil {
		return
	}
	return p.top.Stats(), p.left.Stats(), p.right.Stats(), nil
}

// abcCatalog builds the paper's A/B/C tables for the Figure 2/3 and Table 1
// experiments: columns c1 (uniform score, indexed) and c2 (join key,
// indexed), n tuples each.
func abcCatalog(n int) *catalog.Catalog {
	cat := catalog.New()
	for i, name := range []string{"A", "B", "C"} {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		sch := relation.NewSchema(
			relation.Column{Table: name, Name: "c1", Kind: relation.KindFloat},
			relation.Column{Table: name, Name: "c2", Kind: relation.KindInt},
		)
		rel := relation.New(name, sch)
		for j := 0; j < n; j++ {
			rel.MustAppend(relation.Tuple{
				relation.Float(rng.Float64()),
				relation.Int(int64(rng.Intn(50))),
			})
		}
		cat.AddTable(rel)
		for _, col := range []string{"c1", "c2"} {
			if _, err := cat.CreateIndex(name, col, false); err != nil {
				panic(fmt.Sprintf("bench: %v", err))
			}
		}
	}
	return cat
}

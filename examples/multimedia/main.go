// Multimedia similarity search — the paper's motivating workload (its
// Query Q): "retrieve the k most similar video shots to a given image based
// on m visual features". Every feature (ColorHist, ColorLayout, Texture,
// Edges) ranks the same stored objects by one similarity score.
//
// The example answers the query two ways:
//
//  1. as a top-k *selection* with the engine's Threshold Algorithm operator
//     (exec.TA, on the same rank kernel as the rank joins: sorted access
//     through each feature's score index, random access through its id
//     index), and
//  2. as a top-k *join* through the rank-aware optimizer, which builds a
//     pipeline of HRJN operators over the feature relations,
//
// then compares the access effort (depths) with the Section 4 estimate.
package main

import (
	"fmt"
	"log"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/estimate"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/workload"
)

const (
	objects = 5000
	topK    = 10
)

func main() {
	cat, features := workload.Corpus(workload.CorpusConfig{
		Objects: objects, Features: 4, Seed: 99,
	})
	weights := []float64{0.4, 0.3, 0.2, 0.1}
	fmt.Printf("corpus: %d video objects, features %v, weights %v\n\n",
		objects, features, weights)

	topKSelection(cat, features, weights)
	topKJoin(cat, features, weights)
}

// topKSelection treats each feature relation as a ranked list of the same
// objects and aggregates them with TA.
func topKSelection(cat *catalog.Catalog, features []string, weights []float64) {
	inputs := make([]exec.TAInput, len(features))
	for i, f := range features {
		tab, err := cat.Table(f)
		if err != nil {
			log.Fatal(err)
		}
		inputs[i] = exec.TAInput{
			Rel:      tab.Rel,
			ScoreIdx: cat.IndexOn(f, "score"),
			IDIdx:    cat.IndexOn(f, "id"),
			ScorePos: 1, IDPos: 0,
			Weight: weights[i],
		}
	}
	ta, err := exec.NewTA(inputs)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := exec.CollectK(ta, topK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- top-k selection via TA (sorted + random access) --")
	for i, row := range rows {
		// One (id, score) pair per feature, in feature order.
		score := 0.0
		for f, w := range weights {
			score += w * row[2*f+1].AsFloat()
		}
		fmt.Printf("  %2d. object %4d  score %.4f\n", i+1, row[0].AsInt(), score)
	}
	sorted, random := ta.Accesses()
	fmt.Printf("  effort: %d sorted + %d random accesses (naive scan: %d)\n\n",
		sorted, random, objects*len(features))
}

// topKJoin runs the same similarity query through the rank-aware optimizer
// as a 4-way top-k join on object id.
func topKJoin(cat *catalog.Catalog, features []string, weights []float64) {
	q := &logical.Query{Tables: features, K: topK}
	for i, f := range features {
		q.Score.Terms = append(q.Score.Terms,
			expr.ScoreTerm{Weight: weights[i], E: expr.Col(f, "score")})
		if i > 0 {
			q.Joins = append(q.Joins, logical.JoinPred{
				L: expr.Col(features[i-1], "id"), R: expr.Col(f, "id"),
			})
		}
	}
	res, err := core.Optimize(cat, q, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- top-k join via the rank-aware optimizer --")
	fmt.Print(plan.Explain(res.Best))

	op, err := plan.Compile(cat, res.Best)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		log.Fatal(err)
	}
	for i, row := range rows {
		n := len(row)
		fmt.Printf("  %2d. object %s  score %s\n", i+1, row[0], row[n-2])
	}

	// Estimate how deep a 4-way rank-join pipeline must read (id joins have
	// selectivity 1/objects).
	tree, err := estimate.LeftDeep(4, objects, 1.0/objects, 1.0/objects)
	if err != nil {
		log.Fatal(err)
	}
	if err := estimate.Propagate(tree, topK, estimate.ModeAvg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  estimated top rank-join depths for k=%d: dL=%.0f dR=%.0f (of %d tuples)\n",
		topK, tree.DL, tree.DR, objects)
}

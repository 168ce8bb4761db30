package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// This file is the order-contract property test: every ranked operator in
// the executor — HRJN, NRJN, TA, AnyK, ShardMerge — must emit monotonically
// non-increasing combined scores with deterministic tie-breaking, across
// seeded randomized workloads. The monotonicity check allows the rounding
// slack the sharded gather allows a shard stream (orderSlack).

// rankedCase builds one ranked operator plus the score extractor for its
// output tuples. Construction happens per run so determinism can be checked
// by building twice.
type rankedCase struct {
	name  string
	build func(seed int64) (Operator, func(relation.Tuple) float64)
	// want, when set, brute-forces the full expected score sequence.
	want func(seed int64) []float64
}

// pathScore sums the m per-input score columns of a (id, key, score)^m
// concatenated output.
func pathScore(m int) func(relation.Tuple) float64 {
	return func(tup relation.Tuple) float64 { return combinedScoreM(tup, m) }
}

// propRels builds m ranked relations with per-relation derived seeds.
func propRels(m, n int, sel float64, seed int64) []*relation.Relation {
	rels := make([]*relation.Relation, m)
	for i := 0; i < m; i++ {
		rels[i] = workload.Ranked(workload.RankedConfig{
			Name: string(rune('A' + i)), N: n, Selectivity: sel, Seed: seed + int64(i)*7919,
		})
	}
	return rels
}

// hrjnCase builds an HRJN row, configured by tune, whose emitted scores are
// checked against the brute-force join under the residual keep.
func hrjnCase(name string, tune func(*HRJN), keep func([]relation.Tuple) bool) rankedCase {
	rels := func(seed int64) []*relation.Relation { return propRels(2, 220, 0.06, seed) }
	return rankedCase{
		name: name,
		build: func(seed int64) (Operator, func(relation.Tuple) float64) {
			rs := rels(seed)
			j := NewHRJN(rankedScan(rs[0]), rankedScan(rs[1]),
				expr.Col("A", "score"), expr.Col("B", "score"),
				expr.Col("A", "key"), expr.Col("B", "key"), nil)
			tune(j)
			return j, pathScore(2)
		},
		want: func(seed int64) []float64 { return refMultiScores(rels(seed), keep) },
	}
}

func rankedOperatorCases(t *testing.T) []rankedCase {
	t.Helper()
	return []rankedCase{
		{name: "HRJN", build: func(seed int64) (Operator, func(relation.Tuple) float64) {
			rels := propRels(2, 220, 0.06, seed)
			j := NewHRJN(rankedScan(rels[0]), rankedScan(rels[1]),
				expr.Col("A", "score"), expr.Col("B", "score"),
				expr.Col("A", "key"), expr.Col("B", "key"), nil)
			return j, pathScore(2)
		}},
		{name: "NRJN", build: func(seed int64) (Operator, func(relation.Tuple) float64) {
			rels := propRels(2, 160, 0.08, seed)
			j := NewNRJN(rankedScan(rels[0]), rankedScan(rels[1]),
				expr.Col("A", "score"), expr.Col("B", "score"),
				expr.Bin(expr.OpEq, expr.Col("A", "key"), expr.Col("B", "key")))
			return j, pathScore(2)
		}},
		// The residual is not monotone in the combined score, so it rejects
		// candidates on both sides of every threshold.
		hrjnCase("HRJN-residual", func(j *HRJN) {
			j.Residual = expr.Bin(expr.OpGt, expr.Col("A", "score"), expr.Col("B", "score"))
		}, func(parts []relation.Tuple) bool {
			return parts[0][2].AsFloat() > parts[1][2].AsFloat()
		}),
		{name: "AnyK", build: func(seed int64) (Operator, func(relation.Tuple) float64) {
			rels := propRels(3, 180, 0.06, seed)
			inputs := make([]Operator, len(rels))
			scores := make([]expr.Expr, len(rels))
			lkeys := make([]expr.Expr, len(rels)-1)
			rkeys := make([]expr.Expr, len(rels)-1)
			for i, r := range rels {
				inputs[i] = NewSeqScan(r)
				scores[i] = expr.Col(r.Name, "score")
				if i < len(rels)-1 {
					lkeys[i] = expr.Col(r.Name, "key")
				}
				if i > 0 {
					rkeys[i-1] = expr.Col(r.Name, "key")
				}
			}
			j, err := NewAnyK(inputs, scores, lkeys, rkeys)
			if err != nil {
				t.Fatal(err)
			}
			return j, pathScore(3)
		}},
		{name: "TASelect", build: func(seed int64) (Operator, func(relation.Tuple) float64) {
			cat, names := workload.Corpus(workload.CorpusConfig{Objects: 400, Features: 3, Seed: seed})
			weights := []float64{0.5, 0.3, 0.2}
			inputs := make([]TAInput, len(names))
			for i, name := range names {
				tab, _ := cat.Table(name)
				inputs[i] = TAInput{
					Rel:      tab.Rel,
					ScoreIdx: cat.IndexOn(name, "score"),
					IDIdx:    cat.IndexOn(name, "id"),
					ScorePos: 1, IDPos: 0,
					Weight: weights[i],
				}
			}
			ta, err := NewTA(inputs)
			if err != nil {
				t.Fatal(err)
			}
			score := func(tup relation.Tuple) float64 {
				total := 0.0
				for i, w := range weights {
					total += w * tup[i*2+1].AsFloat()
				}
				return total
			}
			return ta, score
		}},
		{name: "ShardMerge", build: func(seed int64) (Operator, func(relation.Tuple) float64) {
			rng := rand.New(rand.NewSource(seed))
			inputs := make([]ShardInput, 4)
			for s := range inputs {
				scores := make([]float64, 40)
				for i := range scores {
					scores[i] = rng.Float64() * 100
				}
				sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
				inputs[s] = ShardInput{Op: shardStream(s*100, scores...), Ceiling: scores[0]}
			}
			m, err := NewShardMerge(inputs, 30, nil)
			if err != nil {
				t.Fatal(err)
			}
			return m, func(tup relation.Tuple) float64 { return tup[1].AsFloat() }
		}},
	}
}

// drainScores collects the operator's full emitted score sequence.
func drainScores(t *testing.T, op Operator, score func(relation.Tuple) float64) []float64 {
	t.Helper()
	out, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(out))
	for i, tup := range out {
		scores[i] = score(tup)
	}
	return scores
}

// TestRankedOrderProperty: for every ranked operator and every seed, the
// emitted score sequence passes Bounds.Observe (non-increasing, no NaN) and
// is byte-identical across two independently constructed runs.
func TestRankedOrderProperty(t *testing.T) {
	seeds := []int64{3, 17, 101, 443, 977}
	for _, c := range rankedOperatorCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, seed := range seeds {
				op, score := c.build(seed)
				scores := drainScores(t, op, score)
				if len(scores) == 0 {
					t.Fatalf("seed %d: operator emitted nothing — property vacuous", seed)
				}
				if c.want != nil {
					want := c.want(seed)
					if len(scores) != len(want) {
						t.Fatalf("seed %d: emitted %d results, brute force has %d", seed, len(scores), len(want))
					}
					for i := range want {
						if math.Abs(scores[i]-want[i]) > 1e-9 {
							t.Fatalf("seed %d rank %d: score %v, brute force %v", seed, i, scores[i], want[i])
						}
					}
				}
				for i, s := range scores {
					if math.IsNaN(s) {
						t.Fatalf("seed %d rank %d: NaN score", seed, i)
					}
					if u := scores[max(i-1, 0)]; s > u+orderSlack(u) {
						t.Fatalf("seed %d rank %d: score %v above the previous %v", seed, i, s, u)
					}
				}
				// Determinism: an independently built second run must emit
				// the exact same sequence, ties included.
				op2, score2 := c.build(seed)
				again := drainScores(t, op2, score2)
				if len(again) != len(scores) {
					t.Fatalf("seed %d: run lengths differ: %d vs %d", seed, len(scores), len(again))
				}
				for i := range scores {
					if scores[i] != again[i] {
						t.Fatalf("seed %d rank %d: nondeterministic score %v vs %v", seed, i, scores[i], again[i])
					}
				}
			}
		})
	}
}

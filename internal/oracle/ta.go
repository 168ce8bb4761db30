package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/costmodel"
	"rankopt/internal/relation"
)

// GenerateTA builds a top-k selection case from the seed — the query class
// the TA plan answers: 2–4 feature lists F1..Fm of (id, score) joined on the
// unique id, every list ranked with a positive weight, LIMIT 1–15. Scores
// are uniform, in some cases rounded to two decimals so they tie; in some
// cases a share of the ids is missing from one list, so objects near the top
// of the others are not join results.
func GenerateTA(seed int64) Case {
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(3)
	n := 50 + rng.Intn(151)
	ties := rng.Intn(3) == 0
	sparse, drop := -1, 0.0
	if rng.Intn(2) == 0 {
		sparse, drop = rng.Intn(m), []float64{0.1, 0.3, 0.6}[rng.Intn(3)]
	}
	cat := catalog.New()
	names := make([]string, m)
	for i := range names {
		names[i] = fmt.Sprintf("F%d", i+1)
		rel := relation.New(names[i], relation.NewSchema(
			relation.Column{Table: names[i], Name: "id", Kind: relation.KindInt},
			relation.Column{Table: names[i], Name: "score", Kind: relation.KindFloat},
		))
		for id := 0; id < n; id++ {
			s := rng.Float64()
			if ties {
				s = math.Round(s*100) / 100
			}
			if i == sparse && rng.Float64() < drop {
				continue
			}
			rel.MustAppend(relation.Tuple{relation.Int(int64(id)), relation.Float(s)})
		}
		cat.AddTable(rel)
		for _, col := range []string{"score", "id"} {
			if _, err := cat.CreateIndex(names[i], col, false); err != nil {
				panic(err)
			}
		}
	}

	var conjs, parts []string
	for i, name := range names {
		if i > 0 {
			conjs = append(conjs, fmt.Sprintf("%s.id = %s.id", names[i-1], name))
		}
		w := []float64{0.5, 1, 1.5, 2}[rng.Intn(4)]
		parts = append(parts, strconv.FormatFloat(w, 'f', -1, 64)+" * "+name+".score")
	}
	k := 1 + rng.Intn(15)
	sql := fmt.Sprintf("SELECT * FROM %s WHERE %s ORDER BY %s DESC LIMIT %d",
		strings.Join(names, ", "), strings.Join(conjs, " AND "), strings.Join(parts, " + "), k)
	return Case{Seed: seed, SQL: sql, Tables: m, K: k, cat: cat, names: names, idJoin: true}
}

// taChosen are the engine options under which the TA plan wins a TA case.
// With the rank joins and any-k disabled, every other plan ends in a sort of
// the join result; one tuple per page and three buffer pages make that sort
// spill, and a random access costs what a tuple costs, so the TA plan, the
// one plan without that sort, is the cheapest. RunSharded runs TA cases
// under them.
var taChosen = func() core.Options {
	p := costmodel.Default()
	p.PageSize, p.BufferPages, p.RandPage = 1, 3, p.CPUTuple
	return core.Options{DisableHRJN: true, DisableNRJN: true, DisableAnyK: true, Params: &p}
}()

// TAReport summarizes one TA differential run.
type TAReport struct {
	SQL string
	// TAPlans is how many enumerated alternatives carried the TA operator;
	// every alternative executed and agreed with brute force.
	TAPlans int
	// Sharded is how many engine runs took the scatter-gather path.
	Sharded int
	// Results is the agreed result count.
	Results int
}

// RunTA is the TA-focused differential pass over a GenerateTA case: every
// enumerated alternative runs through Run against brute force, at least one
// of them must be the TA plan — a case the optimizer no longer recognizes as
// a top-k selection would turn this pass into a no-op — and engines with the
// TA plan chosen run it unsharded and on 2 and 4 shards of an id partition.
func RunTA(c Case) (TAReport, error) {
	rep, err := Run(c)
	if err != nil {
		return TAReport{}, err
	}
	if rep.TAPlans == 0 {
		return TAReport{}, fmt.Errorf("seed %d: no TA plan enumerated\nquery: %s", c.Seed, c.SQL)
	}
	srep, err := RunSharded(c, 2, 4)
	if err != nil {
		return TAReport{}, err
	}
	return TAReport{SQL: c.SQL, TAPlans: rep.TAPlans, Sharded: srep.Sharded, Results: rep.Results}, nil
}

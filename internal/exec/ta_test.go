package exec

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"rankopt/internal/catalog"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// newTAList builds one TA input from explicit (id, score) pairs: a relation
// (id, score) with an index on each column, weighted w.
func newTAList(name string, ids []int64, scores []float64, w float64) TAInput {
	sch := relation.NewSchema(
		relation.Column{Table: name, Name: "id", Kind: relation.KindInt},
		relation.Column{Table: name, Name: "score", Kind: relation.KindFloat},
	)
	rel := relation.New(name, sch)
	for i := range ids {
		rel.MustAppend(relation.Tuple{relation.Int(ids[i]), relation.Float(scores[i])})
	}
	cat := catalog.New()
	cat.AddTable(rel)
	si, err := cat.CreateIndex(name, "score", false)
	if err != nil {
		panic(err)
	}
	ii, err := cat.CreateIndex(name, "id", false)
	if err != nil {
		panic(err)
	}
	return TAInput{Rel: rel, ScoreIdx: si, IDIdx: ii, ScorePos: 1, IDPos: 0, Weight: w}
}

// taResult is one expected answer: an object and its combined score.
type taResult struct {
	id    int64
	score float64
}

// genTALists builds m lists over n shared objects with independent uniform
// scores, returning the inputs and the exact top-k by brute force (score
// descending, id ascending on ties).
func genTALists(m, n int, weights []float64, k int, seed int64) ([]TAInput, []taResult) {
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int64, n)
	for j := range ids {
		ids[j] = int64(j)
	}
	exact := make([]taResult, n)
	for j := range exact {
		exact[j].id = int64(j)
	}
	inputs := make([]TAInput, m)
	for i := range inputs {
		scores := make([]float64, n)
		for j := range scores {
			scores[j] = rng.Float64()
			exact[j].score += weights[i] * scores[j]
		}
		inputs[i] = newTAList(string(rune('A'+i)), ids, scores, weights[i])
	}
	sort.Slice(exact, func(a, b int) bool {
		if exact[a].score != exact[b].score {
			return exact[a].score > exact[b].score
		}
		return exact[a].id < exact[b].id
	})
	return inputs, exact[:min(k, n)]
}

// taRun drains k rows of a TA over inputs and returns them as results.
func taRun(t *testing.T, inputs []TAInput, k int) ([]taResult, *TA) {
	t.Helper()
	ta, err := NewTA(inputs)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CollectK(ta, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]taResult, len(rows))
	for r, row := range rows {
		out[r].id = row[0].AsInt()
		for i, in := range inputs {
			out[r].score += in.Weight * row[2*i+1].AsFloat()
		}
	}
	return out, ta
}

// sameTAResults reports the first rank where got and want differ, -1 when
// they agree.
func sameTAResults(got, want []taResult) int {
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	for i := range want {
		if got[i].id != want[i].id || math.Abs(got[i].score-want[i].score) > 1e-9 {
			return i
		}
	}
	return -1
}

func TestTAMatchesExact(t *testing.T) {
	weights := []float64{0.5, 0.3, 0.2}
	inputs, want := genTALists(3, 500, weights, 10, 7)
	got, ta := taRun(t, inputs, 10)
	if i := sameTAResults(got, want); i >= 0 {
		t.Fatalf("rank %d differs: got %v, want %v", i, got, want)
	}
	sorted, random := ta.Accesses()
	if sorted == 0 || random == 0 {
		t.Error("TA accesses not counted")
	}
	// Early-out: should not read all 3*500 entries for k=10.
	if sorted >= 1500 {
		t.Errorf("TA did no early-out: %d sorted accesses", sorted)
	}
}

// TestTAValidation: a single list fails at construction (as do no lists and
// a list without its indexes, TestTASelectValidation), and a negative
// weight — which turns a descending list ascending — fails through the
// descending-score contract every rank operator enforces.
func TestTAValidation(t *testing.T) {
	inputs, _ := genTALists(2, 10, []float64{1, 1}, 5, 3)
	if _, err := NewTA(inputs[:1]); err == nil {
		t.Error("a single list must be rejected")
	}
	inputs[1].Weight = -1
	ta, err := NewTA(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CollectK(ta, 5); err == nil || !strings.Contains(err.Error(), "descending-score contract") {
		t.Errorf("negative weight: got %v, want a descending-score contract violation", err)
	}
}

func TestTAKLargerThanObjects(t *testing.T) {
	weights := []float64{1, 1}
	inputs, want := genTALists(2, 5, weights, 50, 17)
	got, _ := taRun(t, inputs, 50)
	if len(got) != 5 {
		t.Fatalf("TA with k>n returned %d", len(got))
	}
	if i := sameTAResults(got, want); i >= 0 {
		t.Fatalf("TA order wrong with k>n at rank %d", i)
	}
}

// Property: TA agrees with brute force across random instances.
func TestTAProperty(t *testing.T) {
	f := func(seed int64) bool {
		weights := []float64{0.3, 0.7}
		inputs, want := genTALists(2, 120, weights, 6, seed)
		got, _ := taRun(t, inputs, 6)
		return sameTAResults(got, want) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestTAFindsResultsBelowMissingObjects: every object near the top of either
// list is missing from the other, so the one join result ranks below all of
// them. TA must keep reading until it finds it; an operator that gives up
// after k doublings up to the list size returns nothing.
func TestTAFindsResultsBelowMissingObjects(t *testing.T) {
	var aIDs, bIDs []int64
	var aScores, bScores []float64
	for id := int64(1); id <= 10; id++ {
		aIDs, aScores = append(aIDs, id), append(aScores, 0.9)
		bIDs, bScores = append(bIDs, id+10), append(bScores, 0.9)
	}
	aIDs, aScores = append(aIDs, 21), append(aScores, 0.1)
	bIDs, bScores = append(bIDs, 21), append(bScores, 0.1)
	inputs := []TAInput{newTAList("A", aIDs, aScores, 1), newTAList("B", bIDs, bScores, 1)}
	got, _ := taRun(t, inputs, 1)
	if want := []taResult{{21, 0.2}}; sameTAResults(got, want) >= 0 {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestTAHonoursDepthCap: the per-input depth limit applies to TA's sorted
// accesses as to every rank operator's reads, and the failed drain leaves
// nothing charged.
func TestTAHonoursDepthCap(t *testing.T) {
	cat, names := workload.Corpus(workload.CorpusConfig{Objects: 1000, Features: 2, Seed: 5})
	inputs := make([]TAInput, len(names))
	for i, name := range names {
		tab, _ := cat.Table(name)
		inputs[i] = TAInput{Rel: tab.Rel, ScoreIdx: cat.IndexOn(name, "score"),
			IDIdx: cat.IndexOn(name, "id"), ScorePos: 1, IDPos: 0, Weight: 0.5}
	}
	ta, err := NewTA(inputs)
	if err != nil {
		t.Fatal(err)
	}
	budget := NewBudget(ResourceLimits{MaxDepthPerInput: 3})
	ta.Budget = budget
	rows, err := CollectK(ta, 10)
	if !errors.Is(err, ErrDepthExceeded) {
		t.Fatalf("depth cap 3: got %d rows, err %v; want ErrDepthExceeded", len(rows), err)
	}
	if n := budget.Buffered(); n != 0 {
		t.Errorf("failed drain left %d tuples charged", n)
	}
}

// TestTARejectsRepeatedID: TA's premise is one row per object and list. A
// random access that finds an id twice fails, naming the list and the id,
// instead of silently joining the first row.
func TestTARejectsRepeatedID(t *testing.T) {
	a := newTAList("A", []int64{1, 2, 3}, []float64{0.5, 0.9, 0.4}, 1)
	b := newTAList("B", []int64{1, 2, 3, 2}, []float64{0.6, 0.5, 0.3, 0.2}, 1)
	ta, err := NewTA([]TAInput{a, b})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := CollectK(ta, 2)
	if err == nil || !strings.Contains(err.Error(), "input 1") || !strings.Contains(err.Error(), "id 2") {
		t.Fatalf("got %d rows, err %v; want an error naming input 1 and id 2", len(rows), err)
	}
}

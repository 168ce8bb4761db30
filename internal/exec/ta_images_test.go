package exec

import (
	"context"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/relation"
)

// TestTAScoreImages: TA reads every score, by sorted and by random access,
// from the score column's image. An object NULL in some list is no join
// result — the score index holds no NULL row, and a probe that meets one
// does not complete the object — the rest still rank as brute force ranks
// them, and a closed TA holds no image.
func TestTAScoreImages(t *testing.T) {
	inputs, exact := genTALists(2, 300, []float64{0.7, 0.3}, 300, 5)
	// Rebuild list 1 with a NULL score for every fifth object.
	sch := inputs[1].Rel.Schema()
	rel := relation.New("B", sch)
	nulls := map[int64]bool{}
	for _, tup := range inputs[1].Rel.Tuples() {
		row := append(relation.Tuple(nil), tup...)
		if id := row[0].AsInt(); id%5 == 0 {
			row[1], nulls[id] = relation.Null(), true
		}
		rel.MustAppend(row)
	}
	cat := catalog.New()
	cat.AddTable(rel)
	si, err := cat.CreateIndex("B", "score", false)
	if err != nil {
		t.Fatal(err)
	}
	ii, err := cat.CreateIndex("B", "id", false)
	if err != nil {
		t.Fatal(err)
	}
	inputs[1] = TAInput{Rel: rel, ScoreIdx: si, IDIdx: ii, ScorePos: 1, IDPos: 0, Weight: 0.3}
	var want []taResult
	for _, r := range exact {
		if !nulls[r.id] && len(want) < 10 {
			want = append(want, r)
		}
	}
	got, ta := taRun(t, inputs, 10)
	if i := sameTAResults(got, want); i >= 0 {
		t.Fatalf("rank %d differs: got %v, want %v", i, got, want)
	}
	for i := range ta.ins {
		if ta.ins[i].imaged || ta.ins[i].terms[0].img != nil {
			t.Errorf("list %d still holds its score image after Close", i)
		}
	}
}

// TestTAScoreImagesNonNumeric: a list scored by a string column has no
// image, and TA fails Open with an error instead of reading it.
func TestTAScoreImagesNonNumeric(t *testing.T) {
	inputs, _ := genTALists(2, 50, []float64{0.5, 0.5}, 10, 3)
	sch := relation.NewSchema(
		relation.Column{Table: "S", Name: "id", Kind: relation.KindInt},
		relation.Column{Table: "S", Name: "score", Kind: relation.KindString},
	)
	rel := relation.New("S", sch)
	for i := 0; i < 50; i++ {
		rel.MustAppend(relation.Tuple{relation.Int(int64(i)), relation.String_(string(rune('a' + i%26)))})
	}
	cat := catalog.New()
	cat.AddTable(rel)
	si, err := cat.CreateIndex("S", "score", false)
	if err != nil {
		t.Fatal(err)
	}
	ii, err := cat.CreateIndex("S", "id", false)
	if err != nil {
		t.Fatal(err)
	}
	inputs[1] = TAInput{Rel: rel, ScoreIdx: si, IDIdx: ii, ScorePos: 1, IDPos: 0, Weight: 0.5}
	ta, err := NewTA(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Open(context.Background()); err == nil {
		t.Fatal("TA opened over a string score column")
	}
	if ta.ins[0].imaged {
		t.Error("a failed Open left list 0's image bound")
	}
}

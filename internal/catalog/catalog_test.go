package catalog

import (
	"math"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// distinctKeys counts the distinct keys of an index by walking its image in
// order.
func distinctKeys(idx *Index) int {
	img := idx.Image()
	n := 0
	for i := range img.Rids {
		if i == 0 || !img.Key(i).Equal(img.Key(i-1)) {
			n++
		}
	}
	return n
}

func makeTable(name string, n int) *relation.Relation {
	sch := relation.NewSchema(
		relation.Column{Table: name, Name: "id", Kind: relation.KindInt},
		relation.Column{Table: name, Name: "score", Kind: relation.KindFloat},
		relation.Column{Table: name, Name: "grp", Kind: relation.KindInt},
	)
	rel := relation.New(name, sch)
	for i := 0; i < n; i++ {
		rel.MustAppend(relation.Tuple{
			relation.Int(int64(i)),
			relation.Float(float64(i) / float64(n-1)), // uniform [0,1]
			relation.Int(int64(i % 10)),
		})
	}
	return rel
}

func TestAddTableAndStats(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 101))
	tab, err := c.Table("A")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Stats.Card != 101 {
		t.Fatalf("Card = %d", tab.Stats.Card)
	}
	sc := tab.Stats.Cols["score"]
	if sc.Min != 0 || sc.Max != 1 {
		t.Errorf("score min/max = %v/%v", sc.Min, sc.Max)
	}
	if sc.Distinct != 101 {
		t.Errorf("score distinct = %d", sc.Distinct)
	}
	// Slab should be (1-0)/(101-1) = 0.01.
	if math.Abs(sc.Slab-0.01) > 1e-12 {
		t.Errorf("slab = %v, want 0.01", sc.Slab)
	}
	if g := tab.Stats.Cols["grp"]; g.Distinct != 10 {
		t.Errorf("grp distinct = %d", g.Distinct)
	}
	if _, err := c.Table("Z"); err == nil {
		t.Error("missing table should error")
	}
}

func TestNullFrac(t *testing.T) {
	sch := relation.NewSchema(relation.Column{Table: "N", Name: "x", Kind: relation.KindFloat})
	rel := relation.New("N", sch)
	rel.MustAppend(relation.Tuple{relation.Float(1)})
	rel.MustAppend(relation.Tuple{relation.Null()})
	rel.MustAppend(relation.Tuple{relation.Null()})
	rel.MustAppend(relation.Tuple{relation.Float(2)})
	c := New()
	c.AddTable(rel)
	cs := c.ColStats("N", "x")
	if cs.NullFrac != 0.5 {
		t.Errorf("NullFrac = %v", cs.NullFrac)
	}
	if cs.Distinct != 2 {
		t.Errorf("Distinct = %d", cs.Distinct)
	}
}

func TestCreateIndexAndLookup(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 200))
	idx, err := c.CreateIndex("A", "grp", false)
	if err != nil {
		t.Fatal(err)
	}
	if n := distinctKeys(idx); n != 10 {
		t.Errorf("index distinct keys = %d", n)
	}
	rids := idx.Image().Lookup(relation.Int(3))
	if len(rids) != 20 {
		t.Errorf("Lookup(grp=3) = %d rids, want 20", len(rids))
	}
	if got := c.IndexOn("A", "grp"); got != idx {
		t.Error("IndexOn should find the created index")
	}
	if c.IndexOn("A", "score") != nil {
		t.Error("IndexOn for unindexed column should be nil")
	}
	if c.IndexOn("Z", "x") != nil {
		t.Error("IndexOn unknown table should be nil")
	}
	if _, err := c.CreateIndex("A", "nope", false); err == nil {
		t.Error("index on unknown column should fail")
	}
	if _, err := c.CreateIndex("Z", "x", false); err == nil {
		t.Error("index on unknown table should fail")
	}
}

func TestIndexSkipsNulls(t *testing.T) {
	sch := relation.NewSchema(relation.Column{Table: "N", Name: "x", Kind: relation.KindFloat})
	rel := relation.New("N", sch)
	rel.MustAppend(relation.Tuple{relation.Float(1)})
	rel.MustAppend(relation.Tuple{relation.Null()})
	c := New()
	c.AddTable(rel)
	idx, err := c.CreateIndex("N", "x", false)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(idx.Image().Rids); n != 1 {
		t.Errorf("index should skip NULLs, len=%d", n)
	}
}

func TestJoinSelectivity(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 100)) // grp distinct = 10
	c.AddTable(makeTable("B", 100)) // id distinct = 100
	s := c.JoinSelectivity(expr.Col("A", "grp"), expr.Col("B", "id"))
	if s != 0.01 {
		t.Errorf("selectivity = %v, want 1/100", s)
	}
	s = c.JoinSelectivity(expr.Col("A", "grp"), expr.Col("B", "grp"))
	if s != 0.1 {
		t.Errorf("selectivity = %v, want 1/10", s)
	}
	// Unknown columns fall back.
	if s := c.JoinSelectivity(expr.Col("X", "a"), expr.Col("Y", "b")); s != 0.1 {
		t.Errorf("fallback selectivity = %v", s)
	}
}

func TestFilterSelectivity(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 101)) // score uniform [0,1]
	eq := expr.Bin(expr.OpEq, expr.Col("A", "grp"), expr.IntLit(3))
	if s := c.FilterSelectivity(eq); s != 0.1 {
		t.Errorf("eq selectivity = %v", s)
	}
	lt := expr.Bin(expr.OpLt, expr.Col("A", "score"), expr.FloatLit(0.25))
	if s := c.FilterSelectivity(lt); math.Abs(s-0.25) > 1e-9 {
		t.Errorf("lt selectivity = %v", s)
	}
	gt := expr.Bin(expr.OpGe, expr.Col("A", "score"), expr.FloatLit(0.75))
	if s := c.FilterSelectivity(gt); math.Abs(s-0.25) > 1e-9 {
		t.Errorf("ge selectivity = %v", s)
	}
	// Out-of-range constants clamp.
	lt2 := expr.Bin(expr.OpLt, expr.Col("A", "score"), expr.FloatLit(5))
	if s := c.FilterSelectivity(lt2); s != 1 {
		t.Errorf("clamped selectivity = %v", s)
	}
	// Unanalyzable.
	odd := expr.Bin(expr.OpGt, expr.IntLit(1), expr.IntLit(0))
	if s := c.FilterSelectivity(odd); s != 1.0/3 {
		t.Errorf("fallback selectivity = %v", s)
	}
}

func TestCardinalityAndNames(t *testing.T) {
	c := New()
	c.AddTable(makeTable("B", 7))
	c.AddTable(makeTable("A", 5))
	if c.Cardinality("A") != 5 || c.Cardinality("Z") != 0 {
		t.Error("Cardinality mismatch")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("Names = %v", names)
	}
}

func TestDropAndRebuildIndex(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 100))
	if _, err := c.CreateIndex("A", "grp", true); err != nil {
		t.Fatal(err)
	}
	if !c.DropIndex("A", "grp") {
		t.Fatal("drop of existing index should succeed")
	}
	if c.IndexOn("A", "grp") != nil {
		t.Fatal("index still present after drop")
	}
	if c.DropIndex("A", "grp") || c.DropIndex("Z", "x") {
		t.Fatal("dropping absent indexes should report false")
	}
	// Rebuild creates the index fresh — its sorted image built again, not
	// taken from the cache — preserving the clustered flag when one existed.
	old, err := c.CreateIndex("A", "grp", true)
	if err != nil {
		t.Fatal(err)
	}
	oldImage := old.Image()
	idx, err := c.RebuildIndex("A", "grp")
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Clustered {
		t.Error("rebuild should keep the clustered flag")
	}
	if idx.Image() == oldImage {
		t.Error("rebuild should build the sorted image again")
	}
	if n := distinctKeys(idx); n != 10 {
		t.Errorf("rebuilt index keys = %d", n)
	}
	// Rebuild with no prior index works too (unclustered default).
	idx2, err := c.RebuildIndex("A", "id")
	if err != nil {
		t.Fatal(err)
	}
	if idx2.Clustered {
		t.Error("fresh rebuild defaults to unclustered")
	}
}

func TestRefreshStats(t *testing.T) {
	c := New()
	rel := makeTable("A", 10)
	tab := c.AddTable(rel)
	if tab.Stats.Card != 10 {
		t.Fatal("initial stats")
	}
	rel.MustAppend(relation.Tuple{relation.Int(10), relation.Float(2), relation.Int(0)})
	if err := c.RefreshStats("A"); err != nil {
		t.Fatal(err)
	}
	if tab.Stats.Card != 11 {
		t.Errorf("refreshed card = %d", tab.Stats.Card)
	}
	if cs := tab.Stats.Cols["score"]; cs.Max != 2 {
		t.Errorf("refreshed max = %v", cs.Max)
	}
	if err := c.RefreshStats("ZZ"); err == nil {
		t.Error("refreshing unknown table must fail")
	}
}

package relation

import "testing"

func twoTableSchema() *Schema {
	return NewSchema(
		Column{Table: "A", Name: "c1", Kind: KindFloat},
		Column{Table: "A", Name: "c2", Kind: KindInt},
		Column{Table: "B", Name: "c1", Kind: KindFloat},
	)
}

func TestSchemaResolveQualified(t *testing.T) {
	s := twoTableSchema()
	i, err := s.Resolve("B", "c1")
	if err != nil || i != 2 {
		t.Fatalf("Resolve(B.c1) = %d, %v", i, err)
	}
	if _, err := s.Resolve("C", "c1"); err == nil {
		t.Error("Resolve(C.c1) should fail")
	}
}

func TestSchemaResolveUnqualified(t *testing.T) {
	s := twoTableSchema()
	if i, err := s.Resolve("", "c2"); err != nil || i != 1 {
		t.Fatalf("Resolve(c2) = %d, %v", i, err)
	}
	if _, err := s.Resolve("", "c1"); err == nil {
		t.Error("Resolve(c1) should be ambiguous")
	}
	if _, err := s.Resolve("", "zz"); err == nil {
		t.Error("Resolve(zz) should fail")
	}
}

func TestSchemaConcatAndProject(t *testing.T) {
	s := twoTableSchema()
	o := NewSchema(Column{Table: "C", Name: "c2", Kind: KindString})
	cat := s.Concat(o)
	if cat.Len() != 4 {
		t.Fatalf("Concat len = %d", cat.Len())
	}
	if i, err := cat.Resolve("C", "c2"); err != nil || i != 3 {
		t.Fatalf("Resolve(C.c2) in concat = %d, %v", i, err)
	}
	p := cat.Project([]int{3, 0})
	if p.Len() != 2 || p.Column(0).Table != "C" || p.Column(1).Name != "c1" {
		t.Fatalf("Project produced %s", p)
	}
}

func TestSchemaHasTableAndString(t *testing.T) {
	s := twoTableSchema()
	want := "(A.c1 DOUBLE, A.c2 INTEGER, B.c1 DOUBLE)"
	if s.String() != want {
		t.Errorf("String() = %q, want %q", s.String(), want)
	}
}

func TestTupleOps(t *testing.T) {
	a := Tuple{Int(1), Float(2)}
	b := Tuple{String_("x")}
	c := a.Concat(b)
	if len(c) != 3 || c[2].AsString() != "x" {
		t.Fatal("Concat failed")
	}
	cl := a.Clone()
	cl[0] = Int(99)
	if a[0].AsInt() != 1 {
		t.Error("Clone should not alias")
	}
	if a.String() != "[1, 2]" {
		t.Errorf("Tuple.String = %q", a.String())
	}
}

func TestRelationBasics(t *testing.T) {
	s := NewSchema(Column{Table: "T", Name: "k", Kind: KindInt})
	r := New("T", s)
	r.PageSize = 10
	for i := 0; i < 25; i++ {
		r.MustAppend(Tuple{Int(int64(i))})
	}
	if r.Cardinality() != 25 {
		t.Fatalf("Cardinality = %d", r.Cardinality())
	}
	if r.Pages() != 3 {
		t.Fatalf("Pages = %d, want 3", r.Pages())
	}
	if err := r.Append(Tuple{Int(1), Int(2)}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestRelationPagesEdge(t *testing.T) {
	s := NewSchema(Column{Name: "k", Kind: KindInt})
	r := New("E", s)
	if r.Pages() != 0 {
		t.Error("empty relation has 0 pages")
	}
	r.PageSize = 0 // falls back to default
	r.MustAppend(Tuple{Int(1)})
	if r.Pages() != 1 {
		t.Error("one tuple occupies one page")
	}
}

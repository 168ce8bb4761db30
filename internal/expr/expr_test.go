package expr

import (
	"math"
	"testing"
	"testing/quick"

	"rankopt/internal/relation"
)

func testSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Table: "A", Name: "c1", Kind: relation.KindFloat},
		relation.Column{Table: "A", Name: "c2", Kind: relation.KindInt},
		relation.Column{Table: "B", Name: "c2", Kind: relation.KindFloat},
	)
}

func evalOn(t *testing.T, e Expr, tup relation.Tuple) relation.Value {
	t.Helper()
	ev, err := e.Bind(testSchema())
	if err != nil {
		t.Fatalf("Bind(%s): %v", e, err)
	}
	v, err := ev(tup)
	if err != nil {
		t.Fatalf("eval(%s): %v", e, err)
	}
	return v
}

func TestColRefEval(t *testing.T) {
	tup := relation.Tuple{relation.Float(1.5), relation.Int(7), relation.Float(2.5)}
	if v := evalOn(t, Col("A", "c1"), tup); v.AsFloat() != 1.5 {
		t.Errorf("A.c1 = %v", v)
	}
	if v := evalOn(t, Col("B", "c2"), tup); v.AsFloat() != 2.5 {
		t.Errorf("B.c2 = %v", v)
	}
	if _, err := Col("Z", "c9").Bind(testSchema()); err == nil {
		t.Error("binding unknown column should fail")
	}
}

func TestArithmetic(t *testing.T) {
	tup := relation.Tuple{relation.Float(2), relation.Int(3), relation.Float(4)}
	cases := []struct {
		e    Expr
		want float64
	}{
		{Bin(OpAdd, Col("A", "c1"), Col("B", "c2")), 6},
		{Bin(OpSub, Col("B", "c2"), Col("A", "c1")), 2},
		{Bin(OpMul, FloatLit(0.5), Col("B", "c2")), 2},
		{Bin(OpDiv, Col("B", "c2"), Col("A", "c1")), 2},
		{Neg{Col("A", "c1")}, -2},
		{Bin(OpAdd, IntLit(2), IntLit(3)), 5},
	}
	for _, c := range cases {
		if v := evalOn(t, c.e, tup); v.AsFloat() != c.want {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func TestIntArithmeticStaysInt(t *testing.T) {
	tup := relation.Tuple{relation.Float(0), relation.Int(3), relation.Float(0)}
	v := evalOn(t, Bin(OpMul, Col("A", "c2"), IntLit(4)), tup)
	if v.Kind() != relation.KindInt || v.AsInt() != 12 {
		t.Errorf("int*int = %v (%v)", v, v.Kind())
	}
}

func TestDivisionByZero(t *testing.T) {
	ev, err := Bin(OpDiv, IntLit(1), IntLit(0)).Bind(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev(relation.Tuple{relation.Null(), relation.Null(), relation.Null()}); err == nil {
		t.Error("division by zero should error")
	}
}

// A non-boolean condition, alone or as an AND/OR operand, is an error, not
// a panic.
func TestNonBooleanCondition(t *testing.T) {
	tup := relation.Tuple{relation.Float(1.5), relation.Int(7), relation.Float(2.5)}
	isTrue := Bin(OpLt, Col("A", "c2"), IntLit(9))
	for _, e := range []Expr{
		Col("A", "c2"),
		Bin(OpAnd, Col("A", "c2"), isTrue),
		Bin(OpAnd, isTrue, Col("A", "c2")),
		Bin(OpOr, Col("A", "c1"), isTrue),
	} {
		ev, err := e.Bind(testSchema())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := EvalBool(ev, tup); err == nil {
			t.Errorf("%s as a condition: no error", e)
		}
	}
}

func TestComparisons(t *testing.T) {
	tup := relation.Tuple{relation.Float(2), relation.Int(3), relation.Float(2)}
	cases := []struct {
		e    Expr
		want bool
	}{
		{Bin(OpEq, Col("A", "c1"), Col("B", "c2")), true},
		{Bin(OpNe, Col("A", "c1"), Col("B", "c2")), false},
		{Bin(OpLt, Col("A", "c1"), Col("A", "c2")), true},
		{Bin(OpLe, Col("A", "c1"), Col("B", "c2")), true},
		{Bin(OpGt, Col("A", "c2"), Col("A", "c1")), true},
		{Bin(OpGe, Col("B", "c2"), Col("A", "c2")), false},
	}
	for _, c := range cases {
		if v := evalOn(t, c.e, tup); v.AsBool() != c.want {
			t.Errorf("%s = %v, want %v", c.e, v, c.want)
		}
	}
}

func TestBooleanShortCircuit(t *testing.T) {
	tup := relation.Tuple{relation.Float(1), relation.Int(1), relation.Float(1)}
	// Right side would divide by zero; AND with false left must not evaluate it.
	bad := Bin(OpGt, Bin(OpDiv, IntLit(1), IntLit(0)), IntLit(0))
	e := Bin(OpAnd, BoolLit(false), bad)
	if v := evalOn(t, e, tup); v.AsBool() {
		t.Error("false AND x should be false without evaluating x")
	}
	e = Bin(OpOr, BoolLit(true), bad)
	if v := evalOn(t, e, tup); !v.AsBool() {
		t.Error("true OR x should be true without evaluating x")
	}
}

func TestNullPropagation(t *testing.T) {
	tup := relation.Tuple{relation.Null(), relation.Int(3), relation.Float(4)}
	if v := evalOn(t, Bin(OpAdd, Col("A", "c1"), IntLit(1)), tup); !v.IsNull() {
		t.Error("NULL + 1 should be NULL")
	}
	if v := evalOn(t, Bin(OpEq, Col("A", "c1"), IntLit(1)), tup); !v.IsNull() {
		t.Error("NULL = 1 should be NULL")
	}
	ev, _ := Bin(OpEq, Col("A", "c1"), IntLit(1)).Bind(testSchema())
	ok, err := EvalBool(ev, tup)
	if err != nil || ok {
		t.Error("EvalBool must treat NULL as false")
	}
}

func TestConjunctsAndAnd(t *testing.T) {
	p1 := Bin(OpEq, Col("A", "c1"), Col("B", "c2"))
	p2 := Bin(OpGt, Col("A", "c2"), IntLit(0))
	p3 := Bin(OpLt, Col("A", "c2"), IntLit(9))
	all := And(p1, p2, p3)
	cs := Conjuncts(all)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts returned %d", len(cs))
	}
	if !Equal(cs[0], p1) || !Equal(cs[2], p3) {
		t.Error("Conjuncts order/content mismatch")
	}
	if And() != nil {
		t.Error("And() should be nil")
	}
	if !Equal(And(nil, p2), p2) {
		t.Error("And skips nils")
	}
}

func TestEquiJoinCols(t *testing.T) {
	l, r, ok := EquiJoinCols(Bin(OpEq, Col("A", "c1"), Col("B", "c1")))
	if !ok || l.Table != "A" || r.Table != "B" {
		t.Error("should detect equi-join")
	}
	if _, _, ok := EquiJoinCols(Bin(OpEq, Col("A", "c1"), Col("A", "c2"))); ok {
		t.Error("same-table equality is not a join predicate")
	}
	if _, _, ok := EquiJoinCols(Bin(OpLt, Col("A", "c1"), Col("B", "c1"))); ok {
		t.Error("inequality is not an equi-join")
	}
	if _, _, ok := EquiJoinCols(Bin(OpEq, Col("A", "c1"), IntLit(3))); ok {
		t.Error("column=const is not a join predicate")
	}
}

func TestScoreSumCanonicalForm(t *testing.T) {
	a := Sum(
		ScoreTerm{0.3, Col("A", "c1")},
		ScoreTerm{0.7, Col("B", "c2")},
	)
	b := Sum(
		ScoreTerm{0.7, Col("B", "c2")},
		ScoreTerm{0.3, Col("A", "c1")},
	)
	if a.String() != b.String() {
		t.Errorf("canonical forms differ: %q vs %q", a.String(), b.String())
	}
	if !Equal(a, b) {
		t.Error("Equal should hold for reordered sums")
	}
	want := "0.3*A.c1 + 0.7*B.c2"
	if a.String() != want {
		t.Errorf("canonical form %q, want %q", a.String(), want)
	}
}

func TestScoreSumEval(t *testing.T) {
	s := Sum(
		ScoreTerm{0.3, Col("A", "c1")},
		ScoreTerm{0.7, Col("B", "c2")},
	)
	tup := relation.Tuple{relation.Float(1), relation.Int(0), relation.Float(2)}
	v := evalOn(t, s, tup)
	if math.Abs(v.AsFloat()-(0.3*1+0.7*2)) > 1e-12 {
		t.Errorf("score = %v", v)
	}
	// NULL input nullifies the whole score.
	tup[0] = relation.Null()
	if v := evalOn(t, s, tup); !v.IsNull() {
		t.Error("score over NULL should be NULL")
	}
}

func TestScoreSumTables(t *testing.T) {
	s := Sum(
		ScoreTerm{0.3, Col("A", "c1")},
		ScoreTerm{0.3, Col("C", "c1")},
	)
	ts := Tables(s)
	if len(ts) != 2 || ts[0] != "A" || ts[1] != "C" {
		t.Errorf("Tables = %v", ts)
	}
	if st := (ScoreTerm{1, Bin(OpAdd, Col("A", "x"), Col("B", "y"))}); st.Table() != "" {
		t.Error("mixed-table term has no single table")
	}
}

func TestColumnsCollection(t *testing.T) {
	e := Bin(OpAdd, Bin(OpMul, FloatLit(0.3), Col("A", "c1")), Neg{Col("B", "c2")})
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != Col("A", "c1") || cols[1] != Col("B", "c2") {
		t.Errorf("Columns = %v", cols)
	}
}

// Property: ScoreSum evaluation is monotone in each input score — the
// monotonicity requirement rank-join correctness rests on.
func TestScoreSumMonotone(t *testing.T) {
	s := Sum(
		ScoreTerm{0.4, Col("A", "c1")},
		ScoreTerm{0.6, Col("B", "c2")},
	)
	ev, err := s.Bind(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b, inc uint8) bool {
		t1 := relation.Tuple{relation.Float(float64(a)), relation.Int(0), relation.Float(float64(b))}
		t2 := relation.Tuple{relation.Float(float64(a) + float64(inc)), relation.Int(0), relation.Float(float64(b))}
		v1, _ := ev(t1)
		v2, _ := ev(t2)
		return v2.AsFloat() >= v1.AsFloat()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "+" || OpNe.String() != "<>" || OpAnd.String() != "AND" {
		t.Error("Op.String mismatch")
	}
	if !OpLe.Comparison() || OpMul.Comparison() {
		t.Error("Comparison classification mismatch")
	}
}

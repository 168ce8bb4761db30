// Package expr implements scalar expressions over tuples: column references,
// constants, arithmetic, comparisons, boolean connectives, and weighted score
// sums. Expressions have a canonical string form used by the optimizer to
// match interesting order expressions (Definition 1 in the paper), and they
// bind against a schema into closed evaluators for execution.
package expr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rankopt/internal/relation"
)

// Eval is a bound expression: it evaluates against a tuple of the schema the
// expression was bound to.
type Eval func(t relation.Tuple) (relation.Value, error)

// Expr is a scalar expression tree node.
type Expr interface {
	// String renders the canonical form of the expression. Two expressions
	// are considered identical by the optimizer iff their canonical forms
	// are equal.
	String() string
	// Bind resolves column references against sch and returns an evaluator.
	Bind(sch *relation.Schema) (Eval, error)
	// AddColumns appends every column referenced by the expression to dst.
	AddColumns(dst []ColRef) []ColRef
}

// Columns returns all column references in e.
func Columns(e Expr) []ColRef { return e.AddColumns(nil) }

// Tables returns the sorted set of table qualifiers referenced by e.
func Tables(e Expr) []string {
	set := map[string]bool{}
	for _, c := range Columns(e) {
		if c.Table != "" {
			set[c.Table] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Equal reports whether two expressions have the same canonical form.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

// ColRef references a column, optionally qualified by table name/alias.
type ColRef struct {
	Table string
	Name  string
}

// Col constructs a column reference expression.
func Col(table, name string) ColRef { return ColRef{Table: table, Name: name} }

// String implements Expr.
func (c ColRef) String() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Bind implements Expr.
func (c ColRef) Bind(sch *relation.Schema) (Eval, error) {
	i, err := sch.Resolve(c.Table, c.Name)
	if err != nil {
		return nil, err
	}
	return func(t relation.Tuple) (relation.Value, error) {
		if i >= len(t) {
			return relation.Null(), fmt.Errorf("expr: tuple too short for column %s (index %d)", c, i)
		}
		return t[i], nil
	}, nil
}

// AddColumns implements Expr.
func (c ColRef) AddColumns(dst []ColRef) []ColRef { return append(dst, c) }

// Const is a literal value.
type Const struct{ V relation.Value }

// IntLit, FloatLit, StrLit, BoolLit construct literal expressions.
func IntLit(v int64) Const     { return Const{relation.Int(v)} }
func FloatLit(v float64) Const { return Const{relation.Float(v)} }
func StrLit(v string) Const    { return Const{relation.String_(v)} }
func BoolLit(v bool) Const     { return Const{relation.Bool(v)} }

// String implements Expr.
func (c Const) String() string {
	// Render floats compactly so 0.3 stays "0.3".
	if c.V.Kind() == relation.KindFloat {
		return strconv.FormatFloat(c.V.AsFloat(), 'g', -1, 64)
	}
	return c.V.String()
}

// Bind implements Expr.
func (c Const) Bind(*relation.Schema) (Eval, error) {
	v := c.V
	return func(relation.Tuple) (relation.Value, error) { return v, nil }, nil
}

// AddColumns implements Expr.
func (c Const) AddColumns(dst []ColRef) []ColRef { return dst }

// Op enumerates binary operators.
type Op uint8

// Binary operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string { return opNames[o] }

// Comparison reports whether the operator yields a boolean from two scalars.
func (o Op) Comparison() bool { return o >= OpEq && o <= OpGe }

// Binary applies Op to two subexpressions.
type Binary struct {
	Op   Op
	L, R Expr
}

// Bin constructs a binary expression.
func Bin(op Op, l, r Expr) Binary { return Binary{Op: op, L: l, R: r} }

// String implements Expr.
func (b Binary) String() string {
	return "(" + b.L.String() + " " + b.Op.String() + " " + b.R.String() + ")"
}

// AddColumns implements Expr.
func (b Binary) AddColumns(dst []ColRef) []ColRef {
	return b.R.AddColumns(b.L.AddColumns(dst))
}

// Bind implements Expr.
func (b Binary) Bind(sch *relation.Schema) (Eval, error) {
	le, err := b.L.Bind(sch)
	if err != nil {
		return nil, err
	}
	re, err := b.R.Bind(sch)
	if err != nil {
		return nil, err
	}
	op := b.Op
	return func(t relation.Tuple) (relation.Value, error) {
		lv, err := le(t)
		if err != nil {
			return relation.Null(), err
		}
		// Short-circuit boolean connectives.
		if op == OpAnd || op == OpOr {
			if lv.IsNull() {
				return relation.Null(), nil
			}
			lb, err := truth(lv)
			if err != nil {
				return relation.Null(), err
			}
			if op == OpAnd && !lb {
				return relation.Bool(false), nil
			}
			if op == OpOr && lb {
				return relation.Bool(true), nil
			}
			rv, err := re(t)
			if err != nil {
				return relation.Null(), err
			}
			if rv.IsNull() {
				return relation.Null(), nil
			}
			rb, err := truth(rv)
			return relation.Bool(rb), err
		}
		rv, err := re(t)
		if err != nil {
			return relation.Null(), err
		}
		if lv.IsNull() || rv.IsNull() {
			return relation.Null(), nil
		}
		if op.Comparison() {
			if !lv.Comparable(rv) {
				return relation.Null(), fmt.Errorf("expr: cannot compare %v against %v", lv, rv)
			}
			cmp := lv.Compare(rv)
			switch op {
			case OpEq:
				return relation.Bool(cmp == 0), nil
			case OpNe:
				return relation.Bool(cmp != 0), nil
			case OpLt:
				return relation.Bool(cmp < 0), nil
			case OpLe:
				return relation.Bool(cmp <= 0), nil
			case OpGt:
				return relation.Bool(cmp > 0), nil
			case OpGe:
				return relation.Bool(cmp >= 0), nil
			}
		}
		// Arithmetic.
		if !lv.Numeric() || !rv.Numeric() {
			return relation.Null(), fmt.Errorf("expr: arithmetic %s on non-numeric values %v, %v", op, lv, rv)
		}
		if lv.Kind() == relation.KindInt && rv.Kind() == relation.KindInt && op != OpDiv {
			a, bi := lv.AsInt(), rv.AsInt()
			switch op {
			case OpAdd:
				return relation.Int(a + bi), nil
			case OpSub:
				return relation.Int(a - bi), nil
			case OpMul:
				return relation.Int(a * bi), nil
			}
		}
		a, bf := lv.AsFloat(), rv.AsFloat()
		switch op {
		case OpAdd:
			return relation.Float(a + bf), nil
		case OpSub:
			return relation.Float(a - bf), nil
		case OpMul:
			return relation.Float(a * bf), nil
		case OpDiv:
			if bf == 0 {
				return relation.Null(), fmt.Errorf("expr: division by zero")
			}
			return relation.Float(a / bf), nil
		}
		return relation.Null(), fmt.Errorf("expr: unsupported operator %v", op)
	}, nil
}

// Neg negates a numeric expression.
type Neg struct{ E Expr }

// String implements Expr.
func (n Neg) String() string { return "(-" + n.E.String() + ")" }

// AddColumns implements Expr.
func (n Neg) AddColumns(dst []ColRef) []ColRef { return n.E.AddColumns(dst) }

// Bind implements Expr.
func (n Neg) Bind(sch *relation.Schema) (Eval, error) {
	e, err := n.E.Bind(sch)
	if err != nil {
		return nil, err
	}
	return func(t relation.Tuple) (relation.Value, error) {
		v, err := e(t)
		if err != nil || v.IsNull() {
			return relation.Null(), err
		}
		if v.Kind() == relation.KindInt {
			return relation.Int(-v.AsInt()), nil
		}
		return relation.Float(-v.AsFloat()), nil
	}, nil
}

// Conjuncts splits an expression into its top-level AND conjuncts.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// And combines conjuncts into a single expression; returns nil for empty.
func And(conjs ...Expr) Expr {
	var out Expr
	for _, c := range conjs {
		if c == nil {
			continue
		}
		if out == nil {
			out = c
		} else {
			out = Bin(OpAnd, out, c)
		}
	}
	return out
}

// EquiJoinCols reports whether e is an equality between two column
// references on different tables, returning both sides if so.
func EquiJoinCols(e Expr) (l, r ColRef, ok bool) {
	b, isBin := e.(Binary)
	if !isBin || b.Op != OpEq {
		return
	}
	lc, lok := b.L.(ColRef)
	rc, rok := b.R.(ColRef)
	if !lok || !rok || lc.Table == rc.Table {
		return
	}
	return lc, rc, true
}

// EvalBool binds and evaluates e as a boolean predicate helper for tests and
// simple filters; NULL counts as false.
func EvalBool(ev Eval, t relation.Tuple) (bool, error) {
	v, err := ev(t)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return truth(v)
}

// truth is a non-NULL value's truth as a condition. Only a boolean has one:
// `WHERE T.id` parses, but an integer is no condition, and the query fails
// with an error instead of the panic AsBool would raise.
func truth(v relation.Value) (bool, error) {
	if v.Kind() != relation.KindBool {
		return false, fmt.Errorf("expr: %s value used as a condition", v.Kind())
	}
	return v.AsBool(), nil
}

// ScoreTerm is one weighted per-table component of a ranking function:
// Weight * E, where E references columns of exactly one table.
type ScoreTerm struct {
	Weight float64
	E      Expr
}

// String renders "w*expr" with compact float formatting.
func (s ScoreTerm) String() string {
	return strconv.FormatFloat(s.Weight, 'g', -1, 64) + "*" + s.E.String()
}

// Table returns the single table the term references, or "" if mixed/none.
func (s ScoreTerm) Table() string {
	ts := Tables(s.E)
	if len(ts) != 1 {
		return ""
	}
	return ts[0]
}

// ScoreSum is a monotone linear combination of score terms — the paper's
// combining function f(s1,...,sn) = Σ w_i·s_i. Its canonical form sorts the
// terms, so 0.3*A.c1+0.7*B.c2 and 0.7*B.c2+0.3*A.c1 are the same order
// expression.
type ScoreSum struct {
	Terms []ScoreTerm
}

// Sum constructs a ScoreSum from terms.
func Sum(terms ...ScoreTerm) ScoreSum { return ScoreSum{Terms: terms} }

// String implements Expr with canonical (sorted) term order.
func (s ScoreSum) String() string {
	parts := make([]string, len(s.Terms))
	for i, t := range s.Terms {
		parts[i] = t.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, " + ")
}

// AddColumns implements Expr.
func (s ScoreSum) AddColumns(dst []ColRef) []ColRef {
	for _, t := range s.Terms {
		dst = t.E.AddColumns(dst)
	}
	return dst
}

// Bind implements Expr.
func (s ScoreSum) Bind(sch *relation.Schema) (Eval, error) {
	evals := make([]Eval, len(s.Terms))
	weights := make([]float64, len(s.Terms))
	for i, t := range s.Terms {
		e, err := t.E.Bind(sch)
		if err != nil {
			return nil, err
		}
		evals[i] = e
		weights[i] = t.Weight
	}
	return func(t relation.Tuple) (relation.Value, error) {
		total := 0.0
		for i, ev := range evals {
			v, err := ev(t)
			if err != nil {
				return relation.Null(), err
			}
			if v.IsNull() {
				return relation.Null(), nil
			}
			total += weights[i] * v.AsFloat()
		}
		return relation.Float(total), nil
	}, nil
}

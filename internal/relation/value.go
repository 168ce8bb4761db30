// Package relation defines the fundamental data model of the engine:
// typed values, tuples, schemas, and in-memory relations with page-granular
// accounting. Every other layer (expressions, operators, the optimizer)
// builds on these types.
package relation

import (
	"cmp"
	"fmt"
	"strconv"
)

// Kind enumerates the value types supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a tagged union holding a single scalar value. The zero Value is
// NULL. Values are small and passed by value throughout the engine.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a double-precision value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String_ returns a string value. The underscore avoids clashing with the
// fmt.Stringer method.
func String_(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	var i int64
	if v {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Kind reports the value's type tag.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload. It panics unless Kind is KindInt or
// KindBool.
func (v Value) AsInt() int64 {
	if v.kind != KindInt && v.kind != KindBool {
		panic(fmt.Sprintf("relation: AsInt on %s value", v.kind))
	}
	return v.i
}

// AsFloat returns the value coerced to float64. Integers widen; other kinds
// panic.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.f
	case KindInt:
		return float64(v.i)
	default:
		panic(fmt.Sprintf("relation: AsFloat on %s value", v.kind))
	}
}

// AsString returns the string payload. It panics unless Kind is KindString.
func (v Value) AsString() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("relation: AsString on %s value", v.kind))
	}
	return v.s
}

// AsBool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) AsBool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("relation: AsBool on %s value", v.kind))
	}
	return v.i != 0
}

// Numeric reports whether the value is an int or float.
func (v Value) Numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Float64 returns the numeric payload widened to float64, or ok=false for
// non-numeric kinds. Unlike AsFloat it never panics and stays within the
// inlining budget, so vectorized kernels (batch filters, hash-join probes)
// can read values without a function call per tuple.
func (v Value) Float64() (float64, bool) {
	if v.kind == KindFloat {
		return v.f, true
	}
	if v.kind == KindInt {
		return float64(v.i), true
	}
	return 0, false
}

// Comparable reports whether Compare is defined for this pair of kinds:
// anything against NULL, numeric against numeric, otherwise same kind only.
// Callers evaluating untrusted expressions (constant folding over user SQL)
// must check this before calling Compare, which panics on cross-kind pairs.
func (v Value) Comparable(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return true
	}
	if v.Numeric() && o.Numeric() {
		return true
	}
	return v.kind == o.kind
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare by numeric value; strings lexicographically; bools false<true.
// Comparing a numeric against a non-numeric (or string against bool) panics:
// the planner type-checks expressions before execution, so a cross-kind
// comparison reaching here is an engine bug.
func (v Value) Compare(o Value) int {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0
		case v.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if v.Numeric() && o.Numeric() {
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.kind != o.kind {
		panic(fmt.Sprintf("relation: comparing %s against %s", v.kind, o.kind))
	}
	switch v.kind {
	case KindString:
		switch {
		case v.s < o.s:
			return -1
		case v.s > o.s:
			return 1
		default:
			return 0
		}
	case KindBool:
		switch {
		case v.i < o.i:
			return -1
		case v.i > o.i:
			return 1
		default:
			return 0
		}
	default:
		panic(fmt.Sprintf("relation: comparing %s values", v.kind))
	}
}

// CompareSortKey is the total order that sorts and sorted images share:
// Compare, except that NaN, which Compare calls equal to every number, sorts
// below every number and equals only NaN.
func CompareSortKey(a, b Value) int {
	if fa, ok := a.Float64(); ok {
		if fb, ok := b.Float64(); ok {
			return cmp.Compare(fa, fb)
		}
	}
	return a.Compare(b)
}

// Equal reports whether two values compare equal.
func (v Value) Equal(o Value) bool {
	if v.kind == KindNull || o.kind == KindNull {
		return v.kind == o.kind
	}
	if !v.Comparable(o) {
		return false
	}
	return v.Compare(o) == 0
}

// String renders the value for display and plan output.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return "'" + v.s + "'"
	case KindBool:
		if v.i != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// HashKey returns a value suitable for use as a Go map key that respects
// Equal: two values that Equal share a HashKey. Numeric values normalize to
// their float64 representation so Int(3) and Float(3) collide as required.
func (v Value) HashKey() any {
	switch v.kind {
	case KindNull:
		return nil
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	case KindString:
		return v.s
	case KindBool:
		return v.i != 0
	default:
		panic(fmt.Sprintf("relation: HashKey on %s value", v.kind))
	}
}

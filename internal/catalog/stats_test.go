package catalog

import (
	"math"
	"testing"

	"rankopt/internal/relation"
)

// boxedStats is ComputeStats's column loop as it was written with one
// map[any] of Value.HashKey per column: the reference the unboxed counting
// must agree with.
func boxedStats(rel *relation.Relation, i int) ColStats {
	cs := ColStats{}
	distinct := map[any]struct{}{}
	nulls, first := 0, true
	for _, tup := range rel.Tuples() {
		v := tup[i]
		if v.IsNull() {
			nulls++
			continue
		}
		distinct[v.HashKey()] = struct{}{}
		if v.Numeric() {
			f := v.AsFloat()
			if first {
				cs.Min, cs.Max = f, f
				first = false
			} else {
				if f < cs.Min {
					cs.Min = f
				}
				if f > cs.Max {
					cs.Max = f
				}
			}
		}
	}
	cs.Distinct = len(distinct)
	card := rel.Cardinality()
	if card > 0 {
		cs.NullFrac = float64(nulls) / float64(card)
	}
	if n := card - nulls; n > 1 && cs.Max > cs.Min {
		cs.Slab = (cs.Max - cs.Min) / float64(n-1)
	}
	return cs
}

// TestComputeStatsMatchesBoxed checks every column statistic against the
// boxed computation on a mix Value.Equal has to sort out: Int and Float
// holding equal values, −0 and +0, NaNs (each one distinct, as in a map),
// strings that spell numbers, bools and NULLs. The columns run from many
// numbers to few, so a set reused across columns that kept the last
// column's values would overcount.
func TestComputeStatsMatchesBoxed(t *testing.T) {
	nan := math.NaN()
	i, f, s, b, null := relation.Int, relation.Float, relation.String_, relation.Bool, relation.Null()
	cols := []struct {
		name string
		vals []relation.Value
	}{
		{"nums", []relation.Value{i(3), f(3), f(math.Copysign(0, -1)), f(0), i(0), f(nan), f(nan), i(7), null, f(2.5), i(-4), f(1e300)}},
		{"mixed", []relation.Value{s("a"), s("a"), s("3"), i(3), b(true), b(false), b(true), null, null, f(3), s(""), null}},
		{"nanFirst", []relation.Value{f(nan), f(1), i(2), f(2), f(nan), null, i(1), f(-1), null, null, null, null}},
		{"bools", []relation.Value{b(true), null, b(true), b(true), null, b(true), b(true), b(true), b(true), b(true), b(true), b(true)}},
		{"strings", []relation.Value{s("x"), s("y"), s("x"), null, s("3"), s("3"), s("y"), s("z"), s("x"), s("x"), s("y"), s("z")}},
		{"negZero", []relation.Value{f(math.Copysign(0, -1)), null, f(0), i(0), null, null, null, null, null, null, null, null}},
		{"nulls", []relation.Value{null, null, null, null, null, null, null, null, null, null, null, null}},
	}
	sch := make([]relation.Column, len(cols))
	for c, col := range cols {
		sch[c] = relation.Column{Table: "M", Name: col.name, Kind: relation.KindFloat}
	}
	rel := relation.New("M", relation.NewSchema(sch...))
	for r := range cols[0].vals {
		tup := make(relation.Tuple, len(cols))
		for c, col := range cols {
			tup[c] = col.vals[r]
		}
		rel.MustAppend(tup)
	}
	st := ComputeStats(rel)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for c, col := range cols {
		got, want := st.Cols[col.name], boxedStats(rel, c)
		if got.Distinct != want.Distinct || !same(got.Min, want.Min) || !same(got.Max, want.Max) ||
			!same(got.NullFrac, want.NullFrac) || !same(got.Slab, want.Slab) {
			t.Errorf("%s: stats %+v, boxed computation %+v", col.name, got, want)
		}
	}
	// Spot-check the reference itself where the mix is subtle: Int(3) and
	// Float(3) are one value, −0 and +0 one, every NaN its own.
	for name, distinct := range map[string]int{"nums": 8, "mixed": 6, "negZero": 1, "bools": 1, "nulls": 0} {
		if got := st.Cols[name].Distinct; got != distinct {
			t.Errorf("%s: %d distinct values, want %d", name, got, distinct)
		}
	}
}

package engine

import (
	"cmp"
	"slices"
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/workload"
)

// TestSameTableClassMembers runs three spellings of one join — T1.id, T1.key
// and T2.key all equal — once ranked and once unordered, and checks each
// answer against brute force. Spelled as two cross-table predicates, the
// class holds two columns of T1, and T1.id = T1.key is implied by no join:
// the optimizer applies it as a filter on T1. Without that filter both
// implied spellings return rows whose T1.id differs from T1.key.
func TestSameTableClassMembers(t *testing.T) {
	cat, _ := workload.RankedSet(2, workload.RankedConfig{N: 400, Selectivity: 0.05, Seed: 7})
	rows := func(name string) [][3]float64 {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		var out [][3]float64
		for _, r := range tab.Rel.Tuples() {
			out = append(out, [3]float64{float64(r[0].AsInt()), float64(r[1].AsInt()), r[2].AsFloat()})
		}
		return out
	}
	// want holds each matching pair as (T1.id, T2.id, combined score).
	var want [][3]float64
	for _, l := range rows("T1") {
		for _, r := range rows("T2") {
			if l[0] == l[1] && l[1] == r[1] {
				want = append(want, [3]float64{l[0], r[0], l[2] + r[2]})
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("the catalog has no matching pair; the test checks nothing")
	}
	byPair := func(a, b [3]float64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }
	byScore := func(a, b [3]float64) int { return cmp.Compare(b[2], a[2]) }
	slices.SortFunc(want, byPair)
	top := slices.Clone(want)
	slices.SortStableFunc(top, byScore)
	top = top[:min(50, len(top))]

	eng := New(cat, core.Options{})
	for _, where := range []string{
		"T1.id = T1.key AND T1.key = T2.key",
		"T1.id = T2.key AND T2.key = T1.key",
		"T1.id = T2.key AND T1.key = T2.key",
	} {
		for _, ranked := range []bool{false, true} {
			sql := "SELECT * FROM T1, T2 WHERE " + where
			if ranked {
				sql += " ORDER BY T1.score + T2.score DESC LIMIT 50"
			}
			resp := eng.Run(Request{SQL: sql})
			if resp.Err != nil {
				t.Fatalf("%s: %v", sql, resp.Err)
			}
			col := func(name string) int {
				i := slices.Index(resp.Columns, name)
				if i < 0 {
					t.Fatalf("%s: no column %s in %v", sql, name, resp.Columns)
				}
				return i
			}
			id1, key1, id2, s1, s2 := col("T1.id"), col("T1.key"), col("T2.id"), col("T1.score"), col("T2.score")
			var got [][3]float64
			bad := 0
			for _, tup := range resp.Tuples {
				if tup[id1].AsInt() != tup[key1].AsInt() {
					bad++
				}
				got = append(got, [3]float64{float64(tup[id1].AsInt()), float64(tup[id2].AsInt()), tup[s1].AsFloat() + tup[s2].AsFloat()})
			}
			if bad > 0 {
				t.Errorf("%s: %d of %d rows have T1.id != T1.key", sql, bad, len(got))
			}
			exp := want
			if ranked {
				exp = top
				if !sameScores(scoresOf(resp), scoreCol(top)) {
					t.Errorf("%s: scores %v, want %v", sql, scoresOf(resp), scoreCol(top))
				}
			} else {
				slices.SortFunc(got, byPair)
				if !slices.Equal(got, exp) {
					t.Errorf("%s: %d rows, want the %d of brute force", sql, len(got), len(exp))
				}
			}
			if len(got) != len(exp) {
				t.Errorf("%s: %d rows, want %d", sql, len(got), len(exp))
			}
		}
	}
}

// scoreCol is the combined-score column of rows.
func scoreCol(rows [][3]float64) []float64 {
	out := make([]float64, len(rows))
	for i, r := range rows {
		out[i] = r[2]
	}
	return out
}

package exec

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// tagged builds n tuples (key, score, tag) under table name: keys cycle mod
// `mod` — Int keys, or String keys when str is set — scores strictly
// descend, and tags spread over 0..99 so a check on the tags of a pair can
// reject any share of the pairs.
func tagged(name string, n, mod, seed int, str bool) (*relation.Schema, []relation.Tuple) {
	kind := relation.KindInt
	if str {
		kind = relation.KindString
	}
	sch := relation.NewSchema(
		relation.Column{Table: name, Name: "key", Kind: kind},
		relation.Column{Table: name, Name: "score", Kind: relation.KindFloat},
		relation.Column{Table: name, Name: "tag", Kind: relation.KindInt},
	)
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		k := (i*7 + seed) % mod
		key := relation.Int(int64(k))
		if str {
			key = relation.String_(fmt.Sprintf("k%d", k))
		}
		tuples[i] = relation.Tuple{key, relation.Float(float64(n - i)), relation.Int(int64((i*37 + seed) % 100))}
	}
	return sch, tuples
}

// TestRankJoinResidualAllocs runs HRJN with a Residual and NRJN with a
// non-equi conjunct in Pred: both check L.tag + R.tag < c on every pair of
// equal keys. The rank joins evaluate the check on one reused scratch row and
// build an output row only on release, so
//   - at every cutoff c — passing all pairs, most of them rejected, nearly all
//     rejected — the answer is the brute-force join's;
//   - every released row is its own array, shared with no other released row
//     and not with the scratch row;
//   - a rejected candidate allocates nothing: with every pair rejected,
//     doubling both inputs quadruples the candidates and costs no more
//     objects — the inputs' hash tables come from hashStorePool at the size
//     the warm-up runs grew them to.
func TestRankJoinResidualAllocs(t *testing.T) {
	const mod = 15
	lkey, rkey := expr.Col("L", "key"), expr.Col("R", "key")
	lscore, rscore := expr.Col("L", "score"), expr.Col("R", "score")
	below := func(c int64) expr.Expr {
		return expr.Bin(expr.OpLt, expr.Bin(expr.OpAdd, expr.Col("L", "tag"), expr.Col("R", "tag")), expr.IntLit(c))
	}
	joins := map[string]func(l, r Operator, c int64) Operator{
		"HRJN": func(l, r Operator, c int64) Operator {
			return NewHRJN(l, r, lscore, rscore, lkey, rkey, below(c))
		},
		"NRJN": func(l, r Operator, c int64) Operator {
			j := NewNRJN(l, r, lscore, rscore, expr.And(expr.Bin(expr.OpEq, lkey, rkey), below(c)))
			j.LeftKey, j.RightKey = lkey, rkey
			return j
		},
	}
	for name, build := range joins {
		t.Run(name, func(t *testing.T) {
			lsch, ltups := tagged("L", 300, mod, 1, false)
			rsch, rtups := tagged("R", 300, mod, 4, false)
			for _, c := range []int64{200, 20, 2} {
				got := drainOwned(t, build(FromTuples(lsch, ltups), FromTuples(rsch, rtups), c))
				checkPairs(t, fmt.Sprintf("c=%d", c), got, bruteForceTagged(ltups, rtups, c))
			}

			if raceBuild {
				return
			}
			rejectAll := func(n int) float64 {
				lsch, ltups := tagged("L", n, mod, 1, false)
				rsch, rtups := tagged("R", n, mod, 4, false)
				return testing.AllocsPerRun(5, func() {
					out, err := Collect(build(FromTuples(lsch, ltups), FromTuples(rsch, rtups), 0))
					if err != nil || len(out) != 0 {
						t.Fatalf("%d rows, %v; want none", len(out), err)
					}
				})
			}
			small, large := rejectAll(300), rejectAll(600)
			t.Logf("every pair rejected: %.0f allocs over 6 000 candidates, %.0f over 24 000", small, large)
			if large > small {
				t.Errorf("rejecting 18 000 more candidates cost %.0f more allocations, want none", large-small)
			}
		})
	}
}

// drainOwned drains op one Next at a time and, before closing it, stamps
// every released row with its own index and the operator's scratch row with
// -1: a row that shared a backing array with another, or with the scratch,
// would then read another stamp. It returns copies of the rows as released.
func drainOwned(t *testing.T, op Operator) []relation.Tuple {
	t.Helper()
	if err := op.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out []relation.Tuple
	for {
		tup, ok, err := op.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, tup)
	}
	rows := make([]relation.Tuple, len(out))
	for i, tup := range out {
		rows[i] = slices.Clone(tup)
		for c := range tup {
			tup[c] = relation.Int(int64(i))
		}
	}
	var scratch relation.Tuple
	switch j := op.(type) {
	case *HRJN:
		scratch = j.scratch
	case *NRJN:
		scratch = j.scratch
	}
	if len(out) > 0 && scratch == nil {
		t.Fatal("the check was never evaluated on the scratch row")
	}
	for c := range scratch {
		scratch[c] = relation.Int(-1)
	}
	for i, tup := range out {
		for c, v := range tup {
			if v.AsInt() != int64(i) {
				t.Fatalf("released row %d shares its array: column %d reads stamp %v", i, c, v)
			}
		}
	}
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// bruteForceTagged is the reference answer: every pair with equal keys whose
// tags sum below c, as L ++ R rows.
func bruteForceTagged(l, r []relation.Tuple, c int64) []relation.Tuple {
	var out []relation.Tuple
	for _, lt := range l {
		for _, rt := range r {
			if lt[0].Equal(rt[0]) && lt[2].AsInt()+rt[2].AsInt() < c {
				out = append(out, append(slices.Clone(lt), rt...))
			}
		}
	}
	return out
}

// checkPairs fails unless got, a join of two tagged inputs, is the
// brute-force answer want in descending combined-score order.
func checkPairs(t *testing.T, what string, got, want []relation.Tuple) {
	t.Helper()
	for i := 1; i < len(got); i++ {
		if got[i][1].AsFloat()+got[i][4].AsFloat() > got[i-1][1].AsFloat()+got[i-1][4].AsFloat() {
			t.Fatalf("%s: row %d outranks row %d", what, i, i-1)
		}
	}
	if !slices.Equal(rowSet(got), rowSet(want)) {
		t.Fatalf("%s: %d rows differ from the brute-force %d", what, len(got), len(want))
	}
}

// rowSet renders rows as a sorted multiset.
func rowSet(rows []relation.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}

// TestReleaseRowsFollowTheParent checks who owns a rank operator's released
// rows. Under a copying parent (RankAssign here) HRJN, NRJN and AnyK carve
// them from pooled chunks and hand the chunks back, cleared, at their own
// Close; the parent's rows survive that Close. At the root nothing marks the
// operator, and every row it released is its own array that outlives the
// operator's Close.
func TestReleaseRowsFollowTheParent(t *testing.T) {
	lkey, rkey := expr.Col("L", "key"), expr.Col("R", "key")
	lscore, rscore := expr.Col("L", "score"), expr.Col("R", "score")
	lsch, ltups := tagged("L", 300, 15, 1, false)
	rsch, rtups := tagged("R", 300, 15, 4, false)
	rows := func(op Operator) *releaseRows {
		switch j := op.(type) {
		case *HRJN:
			return &j.releaseRows
		case *NRJN:
			return &j.releaseRows
		case *AnyK:
			return &j.releaseRows
		}
		t.Fatalf("%T releases no rows", op)
		return nil
	}
	builds := map[string]func() Operator{
		"HRJN": func() Operator {
			return NewHRJN(FromTuples(lsch, ltups), FromTuples(rsch, rtups), lscore, rscore, lkey, rkey, nil)
		},
		"NRJN": func() Operator {
			j := NewNRJN(FromTuples(lsch, ltups), FromTuples(rsch, rtups), lscore, rscore, expr.Bin(expr.OpEq, lkey, rkey))
			j.LeftKey, j.RightKey = lkey, rkey
			return j
		},
		"AnyK": func() Operator {
			j, err := NewAnyK([]Operator{FromTuples(lsch, ltups), FromTuples(rsch, rtups)},
				[]expr.Expr{lscore, rscore}, []expr.Expr{lkey}, []expr.Expr{rkey})
			if err != nil {
				t.Fatal(err)
			}
			return j
		},
	}
	const k = 40
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			root := build()
			got, err := CollectK(root, k)
			if err != nil || len(got) != k {
				t.Fatalf("root: %d rows, %v", len(got), err)
			}
			if r := rows(root); r.copied || r.chunk != nil {
				t.Fatalf("root: marked %v, holding a chunk %v", r.copied, r.chunk != nil)
			}
			for i, row := range got {
				if row[0].IsNull() || row[len(row)-1].IsNull() {
					t.Fatalf("root: row %d reads %v after Close", i, row)
				}
			}

			child := build()
			ra := NewRankAssign(child, expr.Bin(expr.OpAdd, lscore, rscore))
			if err := ra.Open(context.Background()); err != nil {
				t.Fatal(err)
			}
			var out []relation.Tuple
			for len(out) < k {
				row, ok, err := ra.Next()
				if err != nil || !ok {
					t.Fatalf("under RankAssign: row %d: %v, %v", len(out), ok, err)
				}
				out = append(out, row)
			}
			r := rows(child)
			chunk := r.chunk
			if !r.copied || chunk == nil {
				t.Fatalf("under RankAssign: marked %v, holding a chunk %v", r.copied, chunk != nil)
			}
			if err := ra.Close(); err != nil {
				t.Fatal(err)
			}
			if r.chunk != nil || r.spare != nil || chunk.prev != nil {
				t.Fatal("the chunks were not handed back at Close")
			}
			for i, v := range chunk.vals {
				if !v.IsNull() {
					t.Fatalf("value %d of a recycled chunk reads %v", i, v)
				}
			}
			for i, row := range out {
				if !slices.Equal(row[:len(row)-2], got[i]) || row[len(row)-1].AsInt() != int64(i+1) {
					t.Fatalf("row %d reads %v after Close, want %v ranked %d", i, row, got[i], i+1)
				}
			}
		})
	}
}

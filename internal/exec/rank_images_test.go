package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// The column-image reads of HRJN, checked against the tuple path: the same
// input behind a pass-through Filter is not a row source, so the rank join
// evaluates every score and key on the tuple. Both sides must return the
// same rows in the same order, ties included, with the same Budget charge
// after every row, the same Stats and the same error. NRJN binds no images
// (no benchmark workload runs it); it runs over the same row sources to
// check that reading them by Next keeps it equal to the tuple path too.

// imageTable is one stored input of the fixtures: heap rows (id, key, score,
// neg, aux) with neg = -score, so an ascending scan of neg is a descending
// one of score, and aux either 0 or NULL, so a score of score + 0*aux is
// NULL exactly where aux is. score and neg are indexed.
type imageTable struct {
	name     string
	rel      *relation.Relation
	byScore  *catalog.Index
	byNeg    *catalog.Index
	scoreCol int
}

// imageTableRows draws n rows: keys from {0..4} spelled as Int or Float
// (0 also as -0), with NULL and NaN keys among them (or strings, when
// strKeys is set); scores mostly finite and tied, with ±Inf and, when nan is
// set, NaN among them; and aux NULL in about one row of six.
func imageTableRows(rng *rand.Rand, n int, strKeys, nan bool) []relation.Tuple {
	rows := make([]relation.Tuple, n)
	for i := range rows {
		var key relation.Value
		v := rng.Intn(5)
		switch rng.Intn(8) {
		case 0, 1, 2:
			key = relation.Int(int64(v))
		case 3, 4:
			key = relation.Float(float64(v))
		case 5:
			key = relation.Float(math.Copysign(0, -1))
		case 6:
			key = relation.Float(math.NaN())
		}
		if strKeys && !key.IsNull() {
			key = relation.String_(string(rune('a' + v)))
		}
		score := float64(rng.Intn(12)) / 4
		switch rng.Intn(30) {
		case 0:
			score = math.Inf(1)
		case 1:
			score = math.Inf(-1)
		case 2:
			if nan {
				score = math.NaN()
			}
		}
		aux := relation.Float(0)
		if rng.Intn(6) == 0 {
			aux = relation.Null()
		}
		rows[i] = relation.Tuple{relation.Int(int64(i)), key, relation.Float(score), relation.Float(-score), aux}
	}
	return rows
}

// newImageTable stores rows as table name in cat and indexes score and neg.
func newImageTable(t testing.TB, cat *catalog.Catalog, name string, rows []relation.Tuple) *imageTable {
	t.Helper()
	col := func(n string, k relation.Kind) relation.Column { return relation.Column{Table: name, Name: n, Kind: k} }
	rel := relation.New(name, relation.NewSchema(col("id", relation.KindInt), col("key", relation.KindFloat),
		col("score", relation.KindFloat), col("neg", relation.KindFloat), col("aux", relation.KindFloat)))
	for _, r := range rows {
		rel.MustAppend(r)
	}
	cat.AddTable(rel)
	tab := &imageTable{name: name, rel: rel, scoreCol: 2}
	var err error
	if tab.byScore, err = cat.CreateIndex(name, "score", false); err != nil {
		t.Fatal(err)
	}
	if tab.byNeg, err = cat.CreateIndex(name, "neg", false); err != nil {
		t.Fatal(err)
	}
	return tab
}

// The row sources a rank input reads a stored relation through.
const (
	srcIndexScan = iota
	srcRangeScan
	srcWalkingSort
	srcDrainingSort
	numSources
)

var sourceNames = [numSources]string{"IndexScan", "IndexRangeScan", "walking Sort", "draining Sort"}

// imageInput builds a descending-score input over tab through row source src
// and its score expression; tuplePath puts it behind a pass-through Filter.
// The score is a ScoreSum of bare columns, with a 0*aux term (NULL where aux
// is) when nullable is set.
func imageInput(tab *imageTable, src int, nullable, tuplePath bool) (Operator, expr.Expr) {
	col := func(n string) expr.Expr { return expr.Col(tab.name, n) }
	score := func(w float64, c string) expr.ScoreSum {
		terms := []expr.ScoreTerm{{Weight: w, E: col(c)}}
		if nullable {
			terms = append(terms, expr.ScoreTerm{Weight: 0, E: col("aux")})
		}
		return expr.Sum(terms...)
	}
	var in Operator
	var sc expr.Expr
	switch src {
	case srcIndexScan:
		in, sc = NewIndexScan(tab.rel, tab.byScore, true), score(1, "score")
	case srcRangeScan:
		// Ascending neg up to 0.5 is descending score down to -0.5.
		in = NewIndexRangeScan(tab.rel, tab.byNeg, relation.Null(), relation.Float(0.5), false, true)
		sc = score(-1, "neg")
	case srcWalkingSort:
		s := NewSortByScore(NewSeqScan(tab.rel), expr.Sum(expr.ScoreTerm{Weight: 0.5, E: col("score")}))
		s.Index = &IndexOrder{Idx: tab.byScore, Rel: tab.rel, Col: tab.scoreCol, Weight: 0.5}
		in, sc = s, score(0.5, "score")
	default:
		sc = score(1, "score")
		in = NewSortByScore(NewSeqScan(tab.rel), sc)
	}
	if tuplePath {
		in = NewFilter(in, expr.BoolLit(true))
	}
	return in, sc
}

// rankOp is a rank join under test.
type rankOp interface {
	Operator
	Stats() RankJoinStats
}

// imageJoin builds HRJN or NRJN (keyed on key) over inputs l and r.
func imageJoin(op string, l, r *imageTable, ls, rs int, nullable, tuplePath bool) rankOp {
	lin, lsc := imageInput(l, ls, nullable, tuplePath)
	rin, rsc := imageInput(r, rs, nullable, tuplePath)
	lk, rk := expr.Col(l.name, "key"), expr.Col(r.name, "key")
	if op == "HRJN" {
		return NewHRJN(lin, rin, lsc, rsc, lk, rk, nil)
	}
	j := NewNRJN(lin, rin, lsc, rsc, expr.Bin(expr.OpEq, lk, rk))
	j.LeftKey, j.RightKey = lk, rk
	return j
}

// setBudget arms j's Budget.
func setBudget(j rankOp, b *Budget) {
	switch j := j.(type) {
	case *HRJN:
		j.Budget = b
	case *NRJN:
		j.Budget = b
	}
}

// rankRun is everything one run shows the outside.
type rankRun struct {
	rows    []relation.Tuple
	charged []int64
	stats   RankJoinStats
	err     error
}

// runRank opens j under ctx and limits, reads up to k rows and closes it.
func runRank(ctx context.Context, j rankOp, limits ResourceLimits, k int) rankRun {
	limits.MaxBufferedTuples = 1 << 30
	budget := NewBudget(limits)
	setBudget(j, budget)
	var r rankRun
	if r.err = j.Open(ctx); r.err != nil {
		return r
	}
	for len(r.rows) < k {
		row, ok, err := j.Next()
		if err != nil || !ok {
			r.err = err
			break
		}
		r.rows = append(r.rows, row)
		r.charged = append(r.charged, budget.Buffered())
	}
	r.stats = j.Stats()
	if err := j.Close(); r.err == nil {
		r.err = err
	}
	r.charged = append(r.charged, budget.Buffered())
	return r
}

// diff reports how two runs differ, "" when they do not.
func (img rankRun) diff(tup rankRun) string {
	switch {
	case errString(img.err) != errString(tup.err):
		return "errors differ: " + errString(img.err) + " vs " + errString(tup.err)
	case !slices.Equal(img.charged, tup.charged):
		return fmt.Sprintf("budget charges differ: %v vs %v", img.charged, tup.charged)
	case img.stats != tup.stats:
		return fmt.Sprintf("stats differ: %+v vs %+v", img.stats, tup.stats)
	}
	if i, ok := sameRows(img.rows, tup.rows); !ok {
		return fmt.Sprintf("rows differ at %d (%d vs %d rows)", i, len(img.rows), len(tup.rows))
	}
	return ""
}

// boundImages opens j and reports, per input, whether it read its score and
// its key from column images; an NRJN reads neither.
func boundImages(t *testing.T, j rankOp) (score, key [2]bool) {
	t.Helper()
	if err := j.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if j, ok := j.(*HRJN); ok {
		for i := range j.ins {
			score[i], key[i] = j.ins[i].imaged, j.ins[i].key.img != nil
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return score, key
}

// TestRankJoinImagesMatchTuplePath runs HRJN and NRJN over every pair of row
// sources on random stored tables full of ties, ±Inf scores, NULL scores,
// mixed Int/Float keys and NULL/NaN keys, read out and at two top-k
// prefixes, and compares each run with the tuple path. It starts no
// goroutine, so the race detector's repeats run a few seeds only.
func TestRankJoinImagesMatchTuplePath(t *testing.T) {
	seeds := int64(40)
	if raceBuild {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cat := catalog.New()
		a := newImageTable(t, cat, "A", imageTableRows(rng, 5+rng.Intn(60), false, false))
		b := newImageTable(t, cat, "B", imageTableRows(rng, 5+rng.Intn(60), false, false))
		nullable := seed%2 == 0
		for _, op := range []string{"HRJN", "NRJN"} {
			for ls := 0; ls < numSources; ls++ {
				for rs := 0; rs < numSources; rs++ {
					name := fmt.Sprintf("seed %d %s(%s, %s)", seed, op, sourceNames[ls], sourceNames[rs])
					img := imageJoin(op, a, b, ls, rs, nullable, false)
					tup := imageJoin(op, a, b, ls, rs, nullable, true)
					imaged := op == "HRJN"
					if score, key := boundImages(t, img); score != [2]bool{imaged, imaged} || key != score {
						t.Fatalf("%s: scores %v and keys %v read from images, want %v", name, score, key, imaged)
					}
					full := runRank(context.Background(), img, ResourceLimits{}, math.MaxInt)
					if d := full.diff(runRank(context.Background(), tup, ResourceLimits{}, math.MaxInt)); d != "" {
						t.Fatalf("%s read out: %s", name, d)
					}
					for round := 0; round < 2 && len(full.rows) > 0; round++ {
						k := 1 + rng.Intn(len(full.rows))
						if d := runRank(context.Background(), img, ResourceLimits{}, k).diff(
							runRank(context.Background(), tup, ResourceLimits{}, k)); d != "" {
							t.Fatalf("%s top-%d: %s", name, k, d)
						}
					}
				}
			}
		}
	}
}

// TestRankJoinImageFixtures pins the image path's edge cases against the
// tuple path one at a time, over every row source.
func TestRankJoinImageFixtures(t *testing.T) {
	// each runs f for HRJN and NRJN over every row source on both sides.
	each := func(t *testing.T, a, b *imageTable, nullable bool, f func(t *testing.T, src int, img, tup rankOp)) {
		for _, op := range []string{"HRJN", "NRJN"} {
			for src := 0; src < numSources; src++ {
				t.Run(op+"/"+sourceNames[src], func(t *testing.T) {
					img := imageJoin(op, a, b, src, src, nullable, false)
					tup := imageJoin(op, a, b, src, src, nullable, true)
					f(t, src, img, tup)
				})
			}
		}
	}
	same := func(t *testing.T, img, tup rankOp, limits ResourceLimits) rankRun {
		t.Helper()
		r := runRank(context.Background(), img, limits, math.MaxInt)
		if d := r.diff(runRank(context.Background(), tup, limits, math.MaxInt)); d != "" {
			t.Fatal(d)
		}
		return r
	}
	row := func(id int, key relation.Value, score float64, aux relation.Value) relation.Tuple {
		return relation.Tuple{relation.Int(int64(id)), key, relation.Float(score), relation.Float(-score), aux}
	}
	i, f, null := relation.Int, relation.Float, relation.Null()
	zero := f(0)

	t.Run("null_scores_dropped", func(t *testing.T) {
		cat := catalog.New()
		a := newImageTable(t, cat, "A", []relation.Tuple{row(0, i(1), 2, zero), row(1, i(1), 1.5, null), row(2, i(2), 1, zero)})
		b := newImageTable(t, cat, "B", []relation.Tuple{row(0, i(1), 2, null), row(1, i(1), 1, zero), row(2, i(2), 0.5, zero)})
		each(t, a, b, true, func(t *testing.T, src int, img, tup rankOp) {
			if r := same(t, img, tup, ResourceLimits{}); len(r.rows) != 2 || r.err != nil {
				t.Fatalf("%d rows, %v: want the 2 results without a NULL score", len(r.rows), r.err)
			}
		})
	})
	t.Run("nan_score_fails_alike", func(t *testing.T) {
		cat := catalog.New()
		a := newImageTable(t, cat, "A", []relation.Tuple{row(0, i(1), 2, zero), row(1, i(1), math.NaN(), zero)})
		b := newImageTable(t, cat, "B", []relation.Tuple{row(0, i(1), 1, zero), row(1, i(1), 0, zero)})
		each(t, a, b, false, func(t *testing.T, src int, img, tup rankOp) {
			if r := same(t, img, tup, ResourceLimits{}); r.err == nil {
				t.Fatal("a NaN score must fail the join")
			}
		})
	})
	t.Run("inf_scores_clamped", func(t *testing.T) {
		cat := catalog.New()
		a := newImageTable(t, cat, "A", []relation.Tuple{row(0, i(1), math.Inf(1), zero), row(1, i(1), 0, zero), row(2, i(1), math.Inf(-1), zero)})
		b := newImageTable(t, cat, "B", []relation.Tuple{row(0, i(1), 0.25, zero), row(1, i(1), math.Inf(-1), zero)})
		each(t, a, b, false, func(t *testing.T, src int, img, tup rankOp) {
			// The range scan's bound leaves the -Inf rows out.
			want := 6
			if src == srcRangeScan {
				want = 2
			}
			if r := same(t, img, tup, ResourceLimits{}); len(r.rows) != want || r.err != nil {
				t.Fatalf("%d rows, %v: want %d", len(r.rows), r.err, want)
			}
		})
	})
	t.Run("mixed_int_float_null_nan_keys", func(t *testing.T) {
		cat := catalog.New()
		a := newImageTable(t, cat, "A", []relation.Tuple{row(0, i(1), 3, zero), row(1, f(2), 2, zero),
			row(2, f(math.Copysign(0, -1)), 1, zero), row(3, null, 0.5, zero), row(4, f(math.NaN()), 0.25, zero)})
		b := newImageTable(t, cat, "B", []relation.Tuple{row(0, f(1), 3, zero), row(1, i(2), 2, zero),
			row(2, i(0), 1, zero), row(3, null, 0.5, zero), row(4, f(math.NaN()), 0.25, zero)})
		each(t, a, b, false, func(t *testing.T, src int, img, tup rankOp) {
			if r := same(t, img, tup, ResourceLimits{}); len(r.rows) != 3 {
				t.Fatalf("%d rows: Int and Float spellings of 0, 1 and 2 must join, NULL and NaN must not", len(r.rows))
			}
		})
	})
	t.Run("string_key_has_no_image", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		cat := catalog.New()
		a := newImageTable(t, cat, "A", imageTableRows(rng, 40, true, false))
		b := newImageTable(t, cat, "B", imageTableRows(rng, 40, true, false))
		each(t, a, b, false, func(t *testing.T, src int, img, tup rankOp) {
			_, hrjn := img.(*HRJN)
			if score, key := boundImages(t, img); score[0] != hrjn || key[0] {
				t.Fatalf("scores %v, keys %v read from images: want an HRJN's score imaged, no string key", score, key)
			}
			if r := same(t, img, tup, ResourceLimits{}); len(r.rows) == 0 {
				t.Fatal("no result: the fixture must join on its string keys")
			}
		})
	})
	t.Run("depth_cap", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		cat := catalog.New()
		a := newImageTable(t, cat, "A", imageTableRows(rng, 200, false, false))
		b := newImageTable(t, cat, "B", imageTableRows(rng, 200, false, false))
		each(t, a, b, false, func(t *testing.T, src int, img, tup rankOp) {
			if r := same(t, img, tup, ResourceLimits{MaxDepthPerInput: 7}); !errors.Is(r.err, ErrDepthExceeded) {
				t.Fatalf("%v: want ErrDepthExceeded", r.err)
			}
		})
	})
	t.Run("cancel", func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		cat := catalog.New()
		a := newImageTable(t, cat, "A", imageTableRows(rng, 1500, false, false))
		b := newImageTable(t, cat, "B", imageTableRows(rng, 1500, false, false))
		for _, op := range []string{"HRJN", "NRJN"} {
			for src := 0; src < numSources; src++ {
				// TuplePath wraps each input without a context check of its
				// own, so both sides check the context at the same points.
				run := func(n int, tuplePath bool) (int, rankRun) {
					j := imageJoin(op, a, b, src, src, false, false)
					if tuplePath {
						switch j := j.(type) {
						case *HRJN:
							j.Left, j.Right = TuplePath(j.Left), TuplePath(j.Right)
						case *NRJN:
							j.Left, j.Right = TuplePath(j.Left), TuplePath(j.Right)
						}
					}
					ctx := &cancelAfter{Context: context.Background(), n: n}
					r := runRank(ctx, j, ResourceLimits{}, 50)
					return ctx.calls, r
				}
				total, _ := run(math.MaxInt, false)
				for n := 1; n <= total; n++ {
					ci, ri := run(n, false)
					ct, rt := run(n, true)
					if !errors.Is(ri.err, ErrQueryCancelled) || ci != ct {
						t.Fatalf("%s over %s: cancel at check %d of %d: image path %v after %d checks, tuple path after %d",
							op, sourceNames[src], n, total, ri.err, ci, ct)
					}
					if d := ri.diff(rt); d != "" {
						t.Fatalf("%s over %s: cancel at check %d: %s", op, sourceNames[src], n, d)
					}
				}
			}
		}
	})
}

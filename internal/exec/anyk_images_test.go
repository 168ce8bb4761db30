package exec

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// storedAnyK is pathAnyK as the optimizer compiles it: every level is a bare
// SeqScan of a relation holding its tuples, scored by a one-term ScoreSum, so
// the build reads column images.
func storedAnyK(t testing.TB, levels [][]relation.Tuple) *AnyK {
	t.Helper()
	return anyKOver(t, storedScans(storedRels(levels), false), sumScores(len(levels)))
}

// sumScores scores each level by its score column as a one-term ScoreSum.
func sumScores(m int) []expr.Expr {
	scores := make([]expr.Expr, m)
	for i := range scores {
		scores[i] = expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col(string(rune('A'+i)), "score")})
	}
	return scores
}

// storedRels holds each level in a relation of its own.
func storedRels(levels [][]relation.Tuple) []*relation.Relation {
	rels := make([]*relation.Relation, len(levels))
	for i, lvl := range levels {
		rels[i] = relation.New(string(rune('A'+i)), pathSchemas[i])
		for _, tup := range lvl {
			rels[i].MustAppend(tup)
		}
	}
	return rels
}

// storedScans scans each relation, bare (the image path) or behind a wrapper
// that neither lends nor is a SeqScan (the tuple path).
func storedScans(rels []*relation.Relation, hide bool) []Operator {
	ins := make([]Operator, len(rels))
	for i, rel := range rels {
		ins[i] = NewSeqScan(rel)
		if hide {
			ins[i] = &perTupleOnly{ins[i]}
		}
	}
	return ins
}

// anykRun is everything one AnyK run shows the outside: its rows in order,
// the Budget's charge after each row and after Close, the depths and stats,
// and the error it ended with.
type anykRun struct {
	rows    []relation.Tuple
	charged []int64
	depths  []int
	stats   RankJoinStats
	err     error
}

// runAnyK opens j under ctx and budget, reads up to k rows and closes it.
func runAnyK(ctx context.Context, j *AnyK, budget *Budget, k int) anykRun {
	j.Budget = budget
	var r anykRun
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
	r.depths, r.stats = j.Depths(), j.Stats()
	if err := j.Close(); r.err == nil {
		r.err = err
	}
	r.charged = append(r.charged, budget.Buffered())
	return r
}

// sameRun reports how two runs differ, "" when they do not.
func sameRun(img, tup anykRun) string {
	switch {
	case (img.err == nil) != (tup.err == nil) || img.err != nil && img.err.Error() != tup.err.Error():
		return "errors differ: " + errString(img.err) + " vs " + errString(tup.err)
	case !slices.Equal(img.charged, tup.charged):
		return "budget charges differ"
	case !slices.Equal(img.depths, tup.depths):
		return "depths differ"
	case img.stats != tup.stats:
		return "stats differ"
	}
	if _, ok := sameRows(img.rows, tup.rows); !ok {
		return "rows differ"
	}
	return ""
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// imageScores draws each level's score as a ScoreSum the image path reads:
// one term (what the optimizer compiles) or two over a Float and an Int
// column, whose sum the images must round exactly as ScoreSum.Bind does.
func imageScores(rng *rand.Rand, m int) []expr.Expr {
	scores := make([]expr.Expr, m)
	for i := range scores {
		tab := string(rune('A' + i))
		switch rng.Intn(2) {
		case 0:
			scores[i] = expr.Sum(expr.ScoreTerm{Weight: 0.5, E: expr.Col(tab, "score")})
		default:
			scores[i] = expr.Sum(expr.ScoreTerm{Weight: 0.3, E: expr.Col(tab, "score")},
				expr.ScoreTerm{Weight: 0.7, E: expr.Col(tab, "id")})
		}
	}
	return scores
}

// imagedLevels builds j and reports, per level, whether its score and each
// key it has were read from images.
func imagedLevels(t *testing.T, j *AnyK) (score, keys []bool) {
	t.Helper()
	if err := j.Open(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := j.build(); err != nil {
		t.Fatal(err)
	}
	m := len(j.levels)
	for i := range j.levels {
		score = append(score, j.ins[i].imaged)
		keys = append(keys, (i == m-1 || j.lkeys[i].img != nil) && (i == 0 || j.rkeys[i-1].img != nil))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return score, keys
}

// TestAnyKImagesMatchTuplePath is the differential test of the column-image
// build: the same AnyK over bare SeqScans (scores and keys read from the
// relations' images) and over the same relations behind a wrapper that hides
// them (every score and key evaluated on the tuple) must emit the same rows
// in the same order, ties included, with the same Budget charge after every
// row, the same depths and stats — for a full drain and two top-k prefixes,
// on inputs full of NULL scores, NULL/NaN/±0 keys and Int/Float spellings of
// one key.
func TestAnyKImagesMatchTuplePath(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		rels := storedRels(pathLevels(rng, m, 5+rng.Intn(60)))
		scores := imageScores(rng, m)
		img := anyKOver(t, storedScans(rels, false), scores)
		tup := anyKOver(t, storedScans(rels, true), scores)
		if score, keys := imagedLevels(t, img); slices.Contains(score, false) || slices.Contains(keys, false) {
			t.Fatalf("seed %d: levels read from images: scores %v, keys %v; want all", seed, score, keys)
		}
		budget := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 30})
		full := runAnyK(context.Background(), img, budget, math.MaxInt)
		if d := sameRun(full, runAnyK(context.Background(), tup, budget, math.MaxInt)); d != "" {
			t.Fatalf("seed %d (m=%d) full drain: %s", seed, m, d)
		}
		for round := 0; round < 2 && len(full.rows) > 0; round++ {
			k := 1 + rng.Intn(len(full.rows))
			if d := sameRun(runAnyK(context.Background(), img, budget, k), runAnyK(context.Background(), tup, budget, k)); d != "" {
				t.Fatalf("seed %d (m=%d) top-%d: %s", seed, m, k, d)
			}
		}
	}
}

// TestAnyKImageFixtures pins the image path's edge cases against the tuple
// path one at a time.
func TestAnyKImageFixtures(t *testing.T) {
	row := func(id int64, lk, rk, score relation.Value) relation.Tuple {
		return relation.Tuple{relation.Int(id), lk, rk, score}
	}
	i, f, null := relation.Int, relation.Float, relation.Null()
	// compare runs the fixture both ways under the given limits and returns
	// the image run.
	compare := func(t *testing.T, levels [][]relation.Tuple, limits ResourceLimits) anykRun {
		t.Helper()
		rels := storedRels(levels)
		var runs [2]anykRun
		for n, hide := range []bool{false, true} {
			limits.MaxBufferedTuples = 1 << 30
			j := anyKOver(t, storedScans(rels, hide), sumScores(len(levels)))
			runs[n] = runAnyK(context.Background(), j, NewBudget(limits), math.MaxInt)
		}
		if d := sameRun(runs[0], runs[1]); d != "" {
			t.Fatal(d)
		}
		return runs[0]
	}
	two := func(a, b []relation.Tuple) [][]relation.Tuple { return [][]relation.Tuple{a, b} }

	t.Run("null_scores_dropped", func(t *testing.T) {
		r := compare(t, two(
			[]relation.Tuple{row(1, i(1), null, f(2)), row(2, i(1), null, null), row(3, i(2), null, f(1))},
			[]relation.Tuple{row(4, null, i(1), null), row(5, null, i(1), f(1)), row(6, null, i(2), f(3))},
		), ResourceLimits{})
		if len(r.rows) != 2 || r.err != nil {
			t.Fatalf("%d rows, %v: want the 2 results without a NULL score", len(r.rows), r.err)
		}
	})
	t.Run("nan_score_fails_alike", func(t *testing.T) {
		r := compare(t, two(
			[]relation.Tuple{row(1, i(1), null, f(2))},
			[]relation.Tuple{row(2, null, i(1), f(1)), row(3, null, i(1), f(math.NaN()))},
		), ResourceLimits{})
		if r.err == nil {
			t.Fatal("a NaN score must fail the build")
		}
	})
	t.Run("inf_scores_clamped", func(t *testing.T) {
		r := compare(t, two(
			[]relation.Tuple{row(1, i(1), null, f(math.Inf(1))), row(2, i(1), null, f(math.Inf(-1))), row(3, i(1), null, f(0))},
			[]relation.Tuple{row(4, null, i(1), f(math.Inf(-1))), row(5, null, i(1), f(1))},
		), ResourceLimits{})
		if len(r.rows) != 6 || r.err != nil {
			t.Fatalf("%d rows, %v: want all 6", len(r.rows), r.err)
		}
	})
	t.Run("mixed_int_float_keys", func(t *testing.T) {
		r := compare(t, two(
			[]relation.Tuple{row(1, i(1), null, f(1)), row(2, f(2), null, f(2)), row(3, f(math.Copysign(0, -1)), null, f(3))},
			[]relation.Tuple{row(4, null, f(1), f(1)), row(5, null, i(2), f(2)), row(6, null, i(0), f(3)), row(7, null, f(math.NaN()), f(4))},
		), ResourceLimits{})
		if len(r.rows) != 3 {
			t.Fatalf("%d rows: Int and Float spellings of 0, 1 and 2 must join, NaN must not", len(r.rows))
		}
	})
	t.Run("string_key_falls_back", func(t *testing.T) {
		s := relation.String_
		levels := two(
			[]relation.Tuple{row(1, s("x"), null, f(1)), row(2, s("y"), null, f(2))},
			[]relation.Tuple{row(3, null, s("x"), f(1)), row(4, null, s("x"), f(5))},
		)
		r := compare(t, levels, ResourceLimits{})
		if len(r.rows) != 2 {
			t.Fatalf("%d rows, want 2", len(r.rows))
		}
		score, keys := imagedLevels(t, storedAnyK(t, levels))
		if !score[0] || !score[1] || keys[0] || keys[1] {
			t.Fatalf("images: scores %v, keys %v; want numeric scores imaged, string keys evaluated", score, keys)
		}
	})
	t.Run("max_depth", func(t *testing.T) {
		levels := wideLevels(600, 3)
		r := compare(t, levels, ResourceLimits{MaxDepthPerInput: 400})
		if !errors.Is(r.err, ErrDepthExceeded) || r.depths[0] != 401 {
			t.Fatalf("depths %v, %v: want ErrDepthExceeded at the 401st tuple", r.depths, r.err)
		}
	})
	t.Run("cancel_during_build", func(t *testing.T) {
		levels := wideLevels(3000, 3)
		rels := storedRels(levels)
		// The tuple path reads the same heaps lent as plain slices, so both
		// sides make their context checks at the same points.
		lent := make([]Operator, len(rels))
		for x, rel := range rels {
			lent[x] = FromTuples(rel.Schema(), rel.Tuples())
		}
		run := func(n int, tuplePath bool) (int, anykRun) {
			ins := storedScans(rels, false)
			if tuplePath {
				ins = lent
			}
			j := anyKOver(t, ins, sumScores(len(levels)))
			ctx := &cancelAfter{Context: context.Background(), n: n}
			r := runAnyK(ctx, j, NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 30}), 1)
			return ctx.calls, r
		}
		total, _ := run(math.MaxInt, false)
		for n := 1; n <= total; n++ {
			ci, ri := run(n, false)
			ct, rt := run(n, true)
			if !errors.Is(ri.err, ErrQueryCancelled) || ci != ct {
				t.Fatalf("cancel at check %d of %d: image path %v after %d checks, tuple path after %d", n, total, ri.err, ci, ct)
			}
			if d := sameRun(ri, rt); d != "" {
				t.Fatalf("cancel at check %d: %s", n, d)
			}
		}
	})
}

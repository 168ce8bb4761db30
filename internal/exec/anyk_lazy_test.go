package exec

import (
	"cmp"
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// The any-k path fixtures of this file: every level has the columns
// (id, lk, rk, score) and level i joins level i+1 on lk = rk.
var pathSchemas = func() []*relation.Schema {
	s := make([]*relation.Schema, maxJoinWidth)
	for i := range s {
		tab := string(rune('A' + i))
		s[i] = relation.NewSchema(
			relation.Column{Table: tab, Name: "id", Kind: relation.KindInt},
			relation.Column{Table: tab, Name: "lk", Kind: relation.KindFloat},
			relation.Column{Table: tab, Name: "rk", Kind: relation.KindFloat},
			relation.Column{Table: tab, Name: "score", Kind: relation.KindFloat},
		)
	}
	return s
}()

// pathLevels draws m levels of up to n tuples whose keys come from a small
// domain spelled both as Int and Float (with NULLs, ±0 and NaN mixed in) and
// whose scores come from a handful of values, so suffix ties are the rule.
func pathLevels(rng *rand.Rand, m, n int) [][]relation.Tuple {
	key := func() relation.Value {
		switch v := rng.Intn(12); {
		case v == 0:
			return relation.Null()
		case v == 1:
			return relation.Float(math.NaN())
		case v == 2:
			return relation.Float(math.Copysign(0, -1))
		case v < 7:
			return relation.Int(int64(v % 4))
		default:
			return relation.Float(float64(v % 4))
		}
	}
	levels := make([][]relation.Tuple, m)
	for i := range levels {
		for id := rng.Intn(n + 1); id > 0; id-- {
			score := relation.Float(float64(rng.Intn(4)) / 2)
			if rng.Intn(15) == 0 {
				score = relation.Null()
			}
			levels[i] = append(levels[i], relation.Tuple{relation.Int(int64(id)), key(), key(), score})
		}
	}
	return levels
}

// pathAnyK builds the operator over the levels; lend selects inputs that lend
// their slice (FromTuples) or hide it behind a per-tuple operator.
func pathAnyK(t testing.TB, levels [][]relation.Tuple, lend bool) *AnyK {
	t.Helper()
	ins := make([]Operator, len(levels))
	scores := make([]expr.Expr, len(levels))
	for i := range levels {
		ins[i] = FromTuples(pathSchemas[i], levels[i])
		if !lend {
			ins[i] = &perTupleOnly{ins[i]}
		}
		scores[i] = expr.Col(string(rune('A'+i)), "score")
	}
	return anyKOver(t, ins, scores)
}

// anyKOver builds the path operator over the given inputs and scores, level
// i joining level i+1 on lk = rk.
func anyKOver(t testing.TB, ins []Operator, scores []expr.Expr) *AnyK {
	t.Helper()
	m := len(ins)
	lkeys := make([]expr.Expr, m-1)
	rkeys := make([]expr.Expr, m-1)
	for i := 0; i < m-1; i++ {
		lkeys[i] = expr.Col(string(rune('A'+i)), "lk")
		rkeys[i] = expr.Col(string(rune('A'+i+1)), "rk")
	}
	j, err := NewAnyK(ins, scores, lkeys, rkeys)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// perTupleOnly hides an operator's batch and lending interfaces.
type perTupleOnly struct{ Operator }

// refEntry and refAnyK are the any-k build as it was before the flat levels:
// every entry boxed its key into map[any][]refEntry, carried its successor
// bucket as a slice, and every bucket was sorted completely with
// slices.SortFunc. Kept as the independent reference the lazy build must
// reproduce tuple for tuple, ties included.
type refEntry struct {
	tuple         relation.Tuple
	score, suffix float64
	next          []refEntry
	ord           int32
}

func refAnyK(levels [][]relation.Tuple, limit int) []relation.Tuple {
	const lk, rk, sc = 1, 2, 3
	m := len(levels)
	sortBucket := func(b []refEntry) {
		slices.SortFunc(b, func(x, y refEntry) int {
			if x.suffix != y.suffix {
				return compareScoreDesc(x.suffix, y.suffix)
			}
			return cmp.Compare(x.ord, y.ord)
		})
	}
	var byKey map[any][]refEntry
	var root []refEntry
	for lvl := m - 1; lvl >= 0; lvl-- {
		var kept []refEntry
		for _, t := range levels[lvl] {
			if t[sc].IsNull() {
				continue
			}
			e := refEntry{tuple: t, score: t[sc].AsFloat(), ord: int32(len(kept))}
			e.suffix = e.score
			if lvl < m-1 {
				if t[lk].IsNull() {
					continue
				}
				e.next = byKey[t[lk].HashKey()]
				if len(e.next) == 0 {
					continue
				}
				e.suffix += e.next[0].suffix
			}
			kept = append(kept, e)
		}
		if lvl == 0 {
			sortBucket(kept)
			root = kept
			break
		}
		byKey = map[any][]refEntry{}
		for _, e := range kept {
			if k := e.tuple[rk]; !k.IsNull() {
				byKey[k.HashKey()] = append(byKey[k.HashKey()], e)
			}
		}
		for _, b := range byKey {
			sortBucket(b)
		}
	}

	var pq scoreQueue[anykSol]
	if len(root) > 0 {
		pq.push(root[0].suffix, anykSol{})
	}
	var out []relation.Tuple
	path := make([]*refEntry, m)
	prefix := make([]float64, m)
	for len(pq.items) > 0 && len(out) < limit {
		sol := pq.pop()
		bucket := root
		for lvl := 0; lvl < m; lvl++ {
			e := &bucket[sol.idx[lvl]]
			path[lvl] = e
			prefix[lvl] = e.score
			if lvl > 0 {
				prefix[lvl] += prefix[lvl-1]
			}
			bucket = e.next
		}
		for lvl := int(sol.dev); lvl < m; lvl++ {
			bucket := root
			if lvl > 0 {
				bucket = path[lvl-1].next
			}
			ni := sol.idx[lvl] + 1
			if int(ni) >= len(bucket) {
				continue
			}
			succ := anykSol{dev: int8(lvl)}
			copy(succ.idx[:lvl], sol.idx[:lvl])
			succ.idx[lvl] = ni
			score := bucket[ni].suffix
			if lvl > 0 {
				score += prefix[lvl-1]
			}
			pq.push(score, succ)
		}
		var row relation.Tuple
		for _, e := range path {
			row = append(row, e.tuple...)
		}
		out = append(out, row)
	}
	return out
}

// sameRows compares two result sequences value for value (NaN equal to NaN).
func sameRows(a, b []relation.Tuple) (int, bool) {
	if len(a) != len(b) {
		return min(len(a), len(b)), false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return i, false
		}
		for c := range a[i] {
			x, y := a[i][c], b[i][c]
			if x != y && !(x.Kind() == relation.KindFloat && y.Kind() == relation.KindFloat &&
				math.IsNaN(x.AsFloat()) && math.IsNaN(y.AsFloat())) {
				return i, false
			}
		}
	}
	return 0, true
}

// TestAnyKMatchesReferenceBuild is the differential test of the flat, lazily
// ordered build: on seeded inputs full of suffix ties, NULLs, NaN and ±0 keys
// and Int/Float spellings of one key, the operator must emit exactly the
// reference's tuples in exactly its order — for a full drain and for a top-k
// prefix, over lent and over copied inputs, and again after Close → reopen on
// the recycled arrays.
func TestAnyKMatchesReferenceBuild(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := 2 + rng.Intn(3)
		levels := pathLevels(rng, m, 5+rng.Intn(60))
		want := refAnyK(levels, math.MaxInt)
		j := pathAnyK(t, levels, seed%2 == 0)
		for round := 0; round < 3; round++ {
			k := len(want)
			if round > 0 && k > 0 {
				k = 1 + rng.Intn(k)
			}
			var got []relation.Tuple
			var err error
			if round == 0 {
				got, err = Collect(j)
			} else {
				got, err = CollectK(j, k)
			}
			if err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			if at, ok := sameRows(got, want[:k]); !ok {
				t.Fatalf("seed %d round %d (m=%d, k=%d of %d): diverges from the reference at rank %d (got %d rows)",
					seed, round, m, k, len(want), at, len(got))
			}
		}
	}
}

// TestAnyKLazyBucketOrder walks random buckets of a built operator to random
// depths and requires every position it reaches to hold the entry a complete
// sort of that bucket — (suffix descending, arrival ascending), the order the
// build used to produce with slices.SortFunc — puts there, whatever was or
// was not ordered before. The operator is reopened between rounds, so the
// later rounds run on pooled arrays that still hold the previous build.
func TestAnyKLazyBucketOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 40; round++ {
		m := 2 + rng.Intn(2)
		levels := pathLevels(rng, m, 40+rng.Intn(400))
		j := pathAnyK(t, levels, round%2 == 0)
		if err := j.Open(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := j.build(); err != nil {
			t.Fatal(err)
		}
		for lvl := range j.levels {
			lv := &j.levels[lvl]
			for g := 0; g+1 < len(lv.start); g++ {
				lo, hi := lv.start[g], lv.start[g+1]
				want := slices.Clone(lv.mem[lo:hi])
				slices.SortFunc(want, func(x, y sortEnt) int {
					if sx, sy := lv.suffix[x.seq], lv.suffix[y.seq]; sx != sy {
						return compareScoreDesc(sx, sy)
					}
					return cmp.Compare(x.seq, y.seq)
				})
				if lv.mem[lo] != want[0] {
					t.Fatalf("round %d level %d bucket %d: best member is entry %d, want %d",
						round, lvl, g, lv.mem[lo].seq, want[0].seq)
				}
				if rng.Intn(3) == 0 {
					continue // most buckets are never walked
				}
				// A few walks to random depths, deeper or shallower than before.
				for walk := 0; walk < 3; walk++ {
					depth := int32(rng.Intn(int(hi-lo) + 2))
					for pos := int32(0); pos <= depth; pos++ {
						e, ok, err := j.member(lvl, int32(g), pos)
						if err != nil {
							t.Fatal(err)
						}
						if ok != (pos < hi-lo) {
							t.Fatalf("round %d level %d bucket %d of %d: position %d ok=%v", round, lvl, g, hi-lo, pos, ok)
						}
						if ok && e != want[pos].seq {
							t.Fatalf("round %d level %d bucket %d: position %d holds entry %d, a full sort puts %d there",
								round, lvl, g, pos, e, want[pos].seq)
						}
					}
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// wideLevels is a 2-level path whose root bucket holds every level-0 tuple
// (distinct suffixes) and whose level-1 buckets hold fan tuples per key.
func wideLevels(n, fan int) [][]relation.Tuple {
	levels := make([][]relation.Tuple, 2)
	for i := 0; i < n; i++ {
		k := relation.Int(int64(i % (n / fan)))
		levels[0] = append(levels[0], relation.Tuple{relation.Int(int64(i)), k, k, relation.Float(float64((i * 7919) % n))})
		levels[1] = append(levels[1], relation.Tuple{relation.Int(int64(i)), k, k, relation.Float(float64((i * 104729) % n))})
	}
	return levels
}

// TestAnyKBudgetLifecycle follows the Budget through the flat build: dead
// entries are released as the backward pass finds them, a cap crossed in the
// middle of a drain fails with ErrBudgetExceeded, and in every case Close
// leaves nothing charged.
func TestAnyKBudgetLifecycle(t *testing.T) {
	t.Run("dead_entries_released", func(t *testing.T) {
		// Level 0: keys 0..9, one NULL score, one NULL key. Level 1: only keys
		// 0..4 exist, plus one tuple with a NULL key. Live: 5 + 5.
		var a, b []relation.Tuple
		for i := 0; i < 10; i++ {
			a = append(a, relation.Tuple{relation.Int(int64(i)), relation.Int(int64(i)), relation.Null(), relation.Float(1)})
		}
		a = append(a, relation.Tuple{relation.Int(10), relation.Int(0), relation.Null(), relation.Null()})
		a = append(a, relation.Tuple{relation.Int(11), relation.Null(), relation.Null(), relation.Float(9)})
		for i := 0; i < 5; i++ {
			b = append(b, relation.Tuple{relation.Int(int64(i)), relation.Null(), relation.Int(int64(i)), relation.Float(1)})
		}
		b = append(b, relation.Tuple{relation.Int(5), relation.Null(), relation.Null(), relation.Float(9)})
		for _, lend := range []bool{true, false} {
			budget := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
			j := pathAnyK(t, [][]relation.Tuple{a, b}, lend)
			j.Budget = budget
			if err := j.Open(context.Background()); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := j.Next(); err != nil || !ok {
				t.Fatalf("first result: ok=%v err=%v", ok, err)
			}
			// 10 live entries, and one pending solution: the popped root pushed
			// its level-0 successor (level-1 buckets hold one member each).
			if got := budget.Buffered(); got != 11 {
				t.Fatalf("lend=%v: %d tuples charged after the build, want 10 live entries + 1 queued", lend, got)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := budget.Buffered(); got != 0 {
				t.Fatalf("lend=%v: %d tuples still charged after Close", lend, got)
			}
		}
	})

	t.Run("exceeded_mid_drain", func(t *testing.T) {
		levels := wideLevels(4000, 4)
		for _, lend := range []bool{true, false} {
			// The cap falls inside the second input's drain.
			budget := NewBudget(ResourceLimits{MaxBufferedTuples: 5000})
			j := pathAnyK(t, levels, lend)
			j.Budget = budget
			if err := j.Open(context.Background()); err != nil {
				t.Fatal(err)
			}
			_, _, err := j.Next()
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("lend=%v: want ErrBudgetExceeded, got %v", lend, err)
			}
			if d := j.Depths(); d[0] != 4000 || d[1] >= 4000 {
				t.Fatalf("lend=%v: depths %v, the failure must come before the second input is read out", lend, d)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := budget.Buffered(); got != 0 {
				t.Fatalf("lend=%v: %d tuples still charged after the failed run", lend, got)
			}
		}
	})
}

// cancelAfter is a context that reports cancellation from its n-th Err call
// on — a deterministic way to cancel at a chosen point of a run.
type cancelAfter struct {
	context.Context
	calls, n int
}

func (c *cancelAfter) Err() error {
	if c.calls++; c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestAnyKCancelDuringBuildAndRefine cancels a run at every context check it
// makes up to its first result, one run per check: whichever phase the check
// belongs to — a drain batch, the backward pass, a partition pass of the lazy
// refine that orders the root bucket for the first successor — the run must
// end in ErrQueryCancelled and Close must return the whole budget.
func TestAnyKCancelDuringBuildAndRefine(t *testing.T) {
	levels := wideLevels(6000, 3)
	// run opens the operator under a context cancelled at its n-th check and
	// pulls one result (or only builds); it reports the checks made.
	run := func(n int, buildOnly bool) (checks int, err error) {
		budget := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
		j := pathAnyK(t, levels, true)
		j.Budget = budget
		ctx := &cancelAfter{Context: context.Background(), n: n}
		if err = j.Open(ctx); err != nil {
			t.Fatal(err)
		}
		if buildOnly {
			err = j.build()
		} else {
			_, _, err = j.Next()
		}
		if cerr := j.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if got := budget.Buffered(); got != 0 {
			t.Fatalf("cancel at check %d: %d tuples still charged after Close", n, got)
		}
		return ctx.calls, err
	}
	build, err := run(math.MaxInt, true)
	if err != nil {
		t.Fatal(err)
	}
	total, err := run(math.MaxInt, false)
	if err != nil {
		t.Fatal(err)
	}
	if total <= build {
		t.Fatalf("%d context checks with the first result, %d for the build alone: the lazy refine of a %d-member bucket never checked", total, build, len(levels[0]))
	}
	for n := 1; n <= total; n++ {
		if _, err := run(n, false); !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("cancel at check %d of %d (build makes %d): got %v, want ErrQueryCancelled", n, total, build, err)
		}
	}
}

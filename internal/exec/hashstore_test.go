package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"rankopt/internal/expr"
)

// pairJoins builds each rank join over L and R joined on key.
var pairJoins = map[string]func(l, r Operator) Operator{
	"HRJN": func(l, r Operator) Operator {
		return NewHRJN(l, r, expr.Col("L", "score"), expr.Col("R", "score"), expr.Col("L", "key"), expr.Col("R", "key"), nil)
	},
	"NRJN": func(l, r Operator) Operator {
		lkey, rkey := expr.Col("L", "key"), expr.Col("R", "key")
		j := NewNRJN(l, r, expr.Col("L", "score"), expr.Col("R", "score"), expr.Bin(expr.OpEq, lkey, rkey))
		j.LeftKey, j.RightKey = lkey, rkey
		return j
	},
}

// everyPair is a tag cutoff no pair of tagged rows reaches: bruteForceTagged
// under it is the plain equi-join.
const everyPair = math.MaxInt64

// storesOf returns the hash stores an opened rank join holds.
func storesOf(op Operator) []*hashStore {
	switch j := op.(type) {
	case *HRJN:
		out := make([]*hashStore, len(j.ins))
		for i := range j.ins {
			out[i] = j.ins[i].hashStore
		}
		return out
	case *NRJN:
		return []*hashStore{j.inner.hashStore}
	}
	return nil
}

// checkReturned fails unless the closed rank join op holds no store and every
// store in held went back clean: no tuple anywhere in rows[:cap], no generic
// key map, and no array past the pool's caps.
func checkReturned(t *testing.T, what string, op Operator, held []*hashStore) {
	t.Helper()
	for i, st := range storesOf(op) {
		if st != nil {
			t.Fatalf("%s: input %d still holds its store after Close", what, i)
		}
	}
	for i, st := range held {
		if st == nil {
			t.Fatalf("%s: input %d held no store while open", what, i)
		}
		for r, row := range st.rows[:cap(st.rows)] {
			if row.t != nil {
				t.Fatalf("%s: store %d went back holding a tuple in row %d", what, i, r)
			}
		}
		if st.keys.other != nil {
			t.Fatalf("%s: store %d went back holding its generic keys", what, i)
		}
		if cap(st.rows) > maxPooledRows || cap(st.chains) > maxPooledRows || cap(st.keys.keys) > maxReusedSlots {
			t.Fatalf("%s: store %d went back with %d rows, %d chains and %d key slots of capacity, past the caps",
				what, i, cap(st.rows), cap(st.chains), cap(st.keys.keys))
		}
	}
}

// TestHashStorePoolReturnsCleanStores stops HRJN and NRJN part-way, with
// numeric and with string keys, and checks that Close hands every store back
// carrying capacity but no content. The last case drains a join whose inputs
// buffer past both caps (maxPooledRows rows, maxReusedSlots key slots): its
// stores go back without those arrays.
func TestHashStorePoolReturnsCleanStores(t *testing.T) {
	for name, build := range pairJoins {
		for _, c := range []struct {
			n, mod, pull int
			str          bool
		}{{400, 9, 5, false}, {400, 9, 5, true}, {2 * maxPooledRows, 2 * maxPooledRows, -1, false}} {
			what := fmt.Sprintf("%s n=%d string keys=%v", name, c.n, c.str)
			lsch, ltups := tagged("L", c.n, c.mod, 1, c.str)
			rsch, rtups := tagged("R", c.n, c.mod, 4, c.str)
			op := build(FromTuples(lsch, ltups), FromTuples(rsch, rtups))
			if err := op.Open(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i != c.pull; i++ {
				_, ok, err := op.Next()
				if err != nil || (!ok && c.pull > 0) {
					t.Fatalf("%s: row %d: ok=%v err=%v", what, i, ok, err)
				}
				if !ok {
					break
				}
			}
			held := storesOf(op)
			for i, st := range held {
				if len(st.rows) == 0 || (c.str && st.keys.other == nil) {
					t.Fatalf("%s: store %d buffered nothing to clear", what, i)
				}
				if c.pull < 0 && (len(st.rows) <= maxPooledRows || len(st.keys.keys) <= maxReusedSlots) {
					t.Fatalf("%s: store %d stayed within the caps (%d rows, %d slots)", what, i, len(st.rows), len(st.keys.keys))
				}
			}
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
			checkReturned(t, what, op, held)
		}
	}
}

// TestHashStorePoolKeyKindSequence runs numeric-, string- then
// numeric-keyed joins one after another, each smaller than the one before,
// so every run after the first works in a store whose key table and rows a
// different key kind and size left behind. Every answer is brute force's.
func TestHashStorePoolKeyKindSequence(t *testing.T) {
	for name, build := range pairJoins {
		for step, c := range []struct {
			n, mod int
			str    bool
		}{{600, 50, false}, {300, 20, true}, {150, 7, false}} {
			lsch, ltups := tagged("L", c.n, c.mod, 1, c.str)
			rsch, rtups := tagged("R", c.n, c.mod, 4, c.str)
			got, err := Collect(build(FromTuples(lsch, ltups), FromTuples(rsch, rtups)))
			if err != nil {
				t.Fatal(err)
			}
			checkPairs(t, fmt.Sprintf("%s step %d", name, step), got, bruteForceTagged(ltups, rtups, everyPair))
		}
	}
}

// TestHashStorePoolAfterAbort cuts an HRJN off mid-pull — by the buffered
// tuple budget and by a cancelled context — and fails one at Open after an
// input took its store. Each returns its stores clean and leaves the budget
// at zero, and the next join is brute force's.
func TestHashStorePoolAfterAbort(t *testing.T) {
	lsch, ltups := tagged("L", 4000, 5, 1, false)
	rsch, rtups := tagged("R", 4000, 5, 4, false)
	want := bruteForceTagged(ltups[:200], rtups[:200], everyPair)
	hrjn := func() *HRJN {
		return pairJoins["HRJN"](FromTuples(lsch, ltups), FromTuples(rsch, rtups)).(*HRJN)
	}
	// pullUntil opens j under ctx and pulls until it fails, returning the
	// stores it held and the error. cancel, when set, runs after ten rows.
	pullUntil := func(ctx context.Context, j *HRJN, cancel func()) ([]*hashStore, error) {
		if err := j.Open(ctx); err != nil {
			t.Fatal(err)
		}
		held := storesOf(j)
		for i := 0; ; i++ {
			if i == 10 && cancel != nil {
				cancel()
			}
			_, ok, err := j.Next()
			if err != nil {
				return held, err
			}
			if !ok {
				t.Fatal("the join drained before it was cut off")
			}
		}
	}
	for _, c := range []struct {
		name  string
		limit int64
		run   func(b *Budget) (*HRJN, []*hashStore, error)
		want  error
	}{
		{"budget", 5000, func(b *Budget) (*HRJN, []*hashStore, error) {
			j := hrjn()
			j.Budget = b
			held, err := pullUntil(context.Background(), j, nil)
			return j, held, err
		}, ErrBudgetExceeded},
		{"cancelled", 1 << 30, func(b *Budget) (*HRJN, []*hashStore, error) {
			j := hrjn()
			j.Budget = b
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			held, err := pullUntil(ctx, j, cancel)
			return j, held, err
		}, ErrQueryCancelled},
		{"open", 1 << 30, func(b *Budget) (*HRJN, []*hashStore, error) {
			j := hrjn()
			j.Budget = b
			j.RightKey = expr.Col("R", "missing")
			return j, nil, j.Open(context.Background())
		}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := NewBudget(ResourceLimits{MaxBufferedTuples: c.limit})
			j, held, err := c.run(b)
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Fatalf("cut off with %v, want %v", err, c.want)
			}
			if c.name != "open" {
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
			checkReturned(t, c.name, j, held)
			if b.Buffered() != 0 {
				t.Fatalf("budget still charged %d after the aborted join", b.Buffered())
			}
			got, err := Collect(pairJoins["HRJN"](FromTuples(lsch, ltups[:200]), FromTuples(rsch, rtups[:200])))
			if err != nil {
				t.Fatal(err)
			}
			checkPairs(t, "next join", got, want)
		})
	}
}

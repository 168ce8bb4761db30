package exec

import (
	"fmt"
	"math"
	"testing"

	"rankopt/internal/relation"
)

// TestKeyTableSemantics exercises the table directly: normalized-key
// equality, Int/Float widening, NaN unreachability, the min-max filter, the
// generic half for strings and bools, and dense ids that survive growth at
// either load.
func TestKeyTableSemantics(t *testing.T) {
	freshAt := func(hint int, load uint) *keyTable {
		kt := new(keyTable)
		kt.reset(hint, load)
		return kt
	}
	fresh := func(hint int) *keyTable { return freshAt(hint, probeLoad) }
	f, i, str := relation.Float, relation.Int, relation.String_

	t.Run("empty_rejects_everything", func(t *testing.T) {
		kt := fresh(0)
		probes := []relation.Value{f(0), f(1), f(-1), f(math.NaN()), f(math.Inf(1)), f(math.Inf(-1)),
			i(0), str(""), relation.Bool(false), relation.Null()}
		for _, k := range probes {
			if id := kt.find(k); id != -1 {
				t.Fatalf("empty table found %v as group %d", k, id)
			}
		}
	})

	t.Run("zero_is_one_key", func(t *testing.T) {
		kt := fresh(4)
		neg := kt.intern(f(math.Copysign(0, -1)))
		if pos := kt.intern(f(0)); pos != neg {
			t.Fatalf("+0 interned as group %d, -0 as %d: they are one key", pos, neg)
		}
		if kt.find(f(0)) != neg || kt.find(f(math.Copysign(0, -1))) != neg || kt.find(i(0)) != neg {
			t.Fatal("±0 and Int(0) must all find the one zero group")
		}
	})

	t.Run("int_float_widening", func(t *testing.T) {
		kt := fresh(4)
		a := kt.intern(i(3))
		if b := kt.intern(f(3)); b != a {
			t.Fatalf("Int(3) is group %d, Float(3) group %d", a, b)
		}
		if kt.find(f(3)) != a || kt.find(i(3)) != a {
			t.Fatal("either spelling must find the group")
		}
		if kt.find(f(3.5)) != -1 {
			t.Fatal("in-range absent key must miss")
		}
	})

	t.Run("nan_never_matches", func(t *testing.T) {
		kt := fresh(4)
		nan := kt.intern(f(math.NaN()))
		one := kt.intern(f(1))
		if nan == one {
			t.Fatal("NaN shares a group with a real key")
		}
		if kt.find(f(math.NaN())) != -1 {
			t.Fatal("NaN probe must never match, as in a built-in map")
		}
		if kt.find(f(1)) != one {
			t.Fatal("real key lost after a NaN insert")
		}
		// NaN inserts must not widen the filter.
		if kt.lo != 1 || kt.hi != 1 {
			t.Fatalf("bounds [%v, %v], want [1, 1]", kt.lo, kt.hi)
		}
	})

	t.Run("minmax_filter_bounds", func(t *testing.T) {
		kt := fresh(4)
		for _, v := range []float64{5, 7.5, 10} {
			kt.intern(f(v))
		}
		if kt.lo != 5 || kt.hi != 10 {
			t.Fatalf("bounds [%v, %v], want [5, 10]", kt.lo, kt.hi)
		}
		if kt.find(f(4.999)) != -1 || kt.find(f(10.001)) != -1 || kt.find(f(6)) != -1 {
			t.Fatal("absent keys must miss, in range or out")
		}
		if kt.find(f(5)) < 0 || kt.find(f(10)) < 0 || kt.find(f(7.5)) < 0 {
			t.Fatal("boundary keys must remain reachable")
		}
	})

	t.Run("strings_and_bools", func(t *testing.T) {
		kt := fresh(4)
		x, tr, one := kt.intern(str("x")), kt.intern(relation.Bool(true)), kt.intern(i(1))
		if x == tr || tr == one || x == one {
			t.Fatalf("\"x\", TRUE and 1 must be three groups, got %d %d %d", x, tr, one)
		}
		if kt.intern(str("x")) != x || kt.find(str("x")) != x || kt.find(relation.Bool(true)) != tr {
			t.Fatal("generic keys must find their group")
		}
		if kt.find(str("y")) != -1 || kt.find(relation.Bool(false)) != -1 || kt.find(relation.Null()) != -1 {
			t.Fatal("absent generic keys and NULL must miss")
		}
	})

	t.Run("numeric_then_generic_mid_build", func(t *testing.T) {
		// The first keys are numeric, then a string arrives, then more
		// numerics: ids stay dense in order of first appearance and every key
		// stays reachable — nothing migrates.
		kt := fresh(0)
		keys := []relation.Value{i(1), f(2), str("x"), i(3), str("y"), f(1), str("x")}
		want := []int32{0, 1, 2, 3, 4, 0, 2}
		for n, k := range keys {
			if id := kt.intern(k); id != want[n] {
				t.Fatalf("key %d (%v): group %d, want %d", n, k, id, want[n])
			}
		}
		for n, k := range keys {
			if id := kt.find(k); id != want[n] {
				t.Fatalf("find %v: group %d, want %d", k, id, want[n])
			}
		}
		if kt.groups != 5 {
			t.Fatalf("%d groups, want 5", kt.groups)
		}
	})

	t.Run("ids_dense_and_stable_across_grows", func(t *testing.T) {
		for _, load := range []uint{probeLoad, levelLoad} {
			kt := freshAt(0, load) // 16 slots: 1000 distinct keys force many grows
			slots := len(kt.keys)
			for n := 0; n < 1000; n++ {
				if id := kt.intern(i(int64(n) * 7)); id != int32(n) {
					t.Fatalf("load %d: key %d interned as group %d, want the next dense id", load, n, id)
				}
				if id := kt.internFloat(float64(n) * 7); id != int32(n) { // duplicate
					t.Fatalf("load %d: key %d re-interned as group %d", load, n, id)
				}
			}
			if len(kt.keys) <= slots || kt.used<<load >= len(kt.keys) {
				t.Fatalf("load %d: %d keys in %d slots (from %d): the table must grow before its load", load, kt.used, len(kt.keys), slots)
			}
			for n := 0; n < 1000; n++ {
				if id := kt.findFloat(float64(n) * 7); id != int32(n) {
					t.Fatalf("load %d: key %d: group %d after grows, want %d", load, n, id, n)
				}
			}
			if kt.lo != 0 || kt.hi != 999*7 {
				t.Fatalf("load %d: bounds [%v, %v] after grows, want [0, %d]", load, kt.lo, kt.hi, 999*7)
			}
			if kt.find(i(-1)) != -1 || kt.find(i(3)) != -1 || kt.find(i(7000)) != -1 {
				t.Fatalf("load %d: absent keys must miss after grows", load)
			}
		}
	})

	t.Run("presize_cap_and_reuse", func(t *testing.T) {
		kt := fresh(1 << 20)
		if len(kt.keys) != maxInitialSlots {
			t.Fatalf("huge hint presized %d slots, want cap %d", len(kt.keys), maxInitialSlots)
		}
		kt.intern(i(1))
		kt.intern(str("x"))
		keys := &kt.keys[0]
		kt.reset(100, probeLoad)
		if &kt.keys[0] != keys || len(kt.keys) != maxReusedSlots {
			t.Fatalf("reset to a smaller size kept %d slots, want the arrays at the reuse cap %d", len(kt.keys), maxReusedSlots)
		}
		if kt.find(i(1)) != -1 || kt.find(str("x")) != -1 || kt.groups != 0 {
			t.Fatal("reset must forget every key")
		}
		if id := kt.intern(i(9)); id != 0 {
			t.Fatalf("first key after reset is group %d", id)
		}
	})

	t.Run("reuse_keeps_grown_capacity", func(t *testing.T) {
		// A pooled table comes back at the size its last user grew it to, up
		// to maxReusedSlots: the next user's keys need no grow, and ids still
		// follow first appearance. A table grown far past the cap is reset to
		// the cap, so a small next user clears no more than that.
		kt := fresh(0)
		for n := 0; n < 200; n++ {
			kt.intern(i(int64(n)))
		}
		grown := len(kt.keys)
		kt.reset(0, probeLoad)
		if len(kt.keys) != grown {
			t.Fatalf("reset kept %d of %d slots", len(kt.keys), grown)
		}
		for n := 0; n < 200; n++ {
			if id := kt.intern(i(int64(199 - n))); id != int32(n) {
				t.Fatalf("key %d after reuse: group %d, want %d", 199-n, id, n)
			}
		}
		if len(kt.keys) != grown {
			t.Fatalf("the reused table grew from %d to %d slots", grown, len(kt.keys))
		}
		for len(kt.keys) < maxInitialSlots {
			kt.intern(i(int64(kt.groups)))
		}
		kt.reset(1, probeLoad)
		if len(kt.keys) != maxReusedSlots {
			t.Fatalf("a small reset kept %d slots of a %d-slot table, want the reuse cap %d", len(kt.keys), maxInitialSlots, maxReusedSlots)
		}
		if kt.find(i(1)) != -1 || kt.intern(i(5)) != 0 {
			t.Fatal("the capped reset must forget every key")
		}
	})
}

// BenchmarkKeyTableReset prices what a small user of a table pays: "fresh"
// allocates and clears the 256 slots a hint of 64 asks for; "reused-N"
// resets a table whose arrays hold N slots, which clears min(N,
// maxReusedSlots) of them.
func BenchmarkKeyTableReset(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			var kt keyTable
			kt.reset(64, probeLoad)
		}
	})
	for _, slots := range []int{maxReusedSlots, maxInitialSlots} {
		b.Run(fmt.Sprintf("reused-%d", slots), func(b *testing.B) {
			kt := keyTable{keys: make([]uint64, slots), ids: make([]int32, slots)}
			for n := 0; n < b.N; n++ {
				kt.reset(1, probeLoad)
			}
		})
	}
}

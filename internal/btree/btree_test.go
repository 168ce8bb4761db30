package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rankopt/internal/relation"
)

func TestInsertLookupSmall(t *testing.T) {
	tr := New()
	for i, k := range []int64{5, 3, 8, 3, 1} {
		if err := tr.Insert(relation.Int(k), i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 5 {
		t.Fatalf("Len=%d", tr.Len())
	}
	rids := tr.Lookup(relation.Int(3))
	if len(rids) != 2 || rids[0] != 1 || rids[1] != 3 {
		t.Fatalf("Lookup(3) = %v", rids)
	}
	if tr.Lookup(relation.Int(9)) != nil {
		t.Error("Lookup(9) should be nil")
	}
}

func TestNullKeyRejected(t *testing.T) {
	tr := New()
	if err := tr.Insert(relation.Null(), 0); err == nil {
		t.Error("NULL key must be rejected")
	}
}

func TestAscendDescendLarge(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(42))
	tr := New()
	keys := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = rng.Float64()
		if err := tr.Insert(relation.Float(keys[i]), i); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tr.root.(*inner); !ok {
		t.Error("tree of 10k keys should have split")
	}
	sort.Float64s(keys)

	it := tr.Ascend()
	for i := 0; i < n; i++ {
		k, _, ok := it.Next()
		if !ok {
			t.Fatalf("ascend exhausted at %d", i)
		}
		if k.AsFloat() != keys[i] {
			t.Fatalf("ascend[%d] = %v, want %v", i, k.AsFloat(), keys[i])
		}
	}
	if _, _, ok := it.Next(); ok {
		t.Error("ascend should be exhausted")
	}

	it = tr.Descend()
	for i := n - 1; i >= 0; i-- {
		k, _, ok := it.Next()
		if !ok {
			t.Fatalf("descend exhausted at %d", i)
		}
		if k.AsFloat() != keys[i] {
			t.Fatalf("descend[%d] = %v, want %v", i, k.AsFloat(), keys[i])
		}
	}
	if _, _, ok := it.Next(); ok {
		t.Error("descend should be exhausted")
	}
}

func TestDuplicateKeysOrderedRids(t *testing.T) {
	tr := New()
	for rid := 0; rid < 500; rid++ {
		if err := tr.Insert(relation.Int(int64(rid%7)), rid); err != nil {
			t.Fatal(err)
		}
	}
	// Ascending iteration yields keys grouped, rids in insertion order.
	it := tr.Ascend()
	var lastKey int64 = -1
	lastRid := -1
	count := 0
	for {
		k, rid, ok := it.Next()
		if !ok {
			break
		}
		count++
		ki := k.AsInt()
		if ki < lastKey {
			t.Fatal("keys out of order")
		}
		if ki > lastKey {
			lastKey, lastRid = ki, -1
		}
		if rid <= lastRid {
			t.Fatalf("rids for key %d out of insertion order", ki)
		}
		lastRid = rid
	}
	if count != 500 {
		t.Fatalf("iterated %d pairs, want 500", count)
	}
}

func TestAscendFrom(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		if err := tr.Insert(relation.Int(int64(i*2)), i); err != nil {
			t.Fatal(err)
		}
	}
	// Start at 51 -> first key should be 52.
	it := tr.AscendFrom(relation.Int(51))
	k, _, ok := it.Next()
	if !ok || k.AsInt() != 52 {
		t.Fatalf("AscendFrom(51) first = %v", k)
	}
	// Start exactly at an existing key.
	it = tr.AscendFrom(relation.Int(50))
	k, _, _ = it.Next()
	if k.AsInt() != 50 {
		t.Fatalf("AscendFrom(50) first = %v", k)
	}
	// Past the end.
	it = tr.AscendFrom(relation.Int(1000))
	if _, _, ok := it.Next(); ok {
		t.Error("AscendFrom past end should be empty")
	}
}

func TestRange(t *testing.T) {
	tr := New()
	for i := 0; i < 50; i++ {
		if err := tr.Insert(relation.Int(int64(i)), i); err != nil {
			t.Fatal(err)
		}
	}
	var got []int64
	tr.Range(relation.Int(10), relation.Int(14), func(k relation.Value, rid int) bool {
		got = append(got, k.AsInt())
		return true
	})
	if len(got) != 5 || got[0] != 10 || got[4] != 14 {
		t.Fatalf("Range = %v", got)
	}
	// Early stop.
	n := 0
	tr.Range(relation.Int(0), relation.Int(49), func(relation.Value, int) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early-stop Range visited %d", n)
	}
}

func TestEmptyTreeIterators(t *testing.T) {
	tr := New()
	if _, _, ok := tr.Ascend().Next(); ok {
		t.Error("empty ascend")
	}
	if _, _, ok := tr.Descend().Next(); ok {
		t.Error("empty descend")
	}
	if tr.Lookup(relation.Int(1)) != nil {
		t.Error("empty lookup")
	}
}

// Property: for random inserts, lookups agree with a reference map and
// ascending iteration is sorted and complete.
func TestAgainstReferenceMap(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)*10 + 1
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		ref := map[int64][]int{}
		for rid := 0; rid < n; rid++ {
			k := rng.Int63n(int64(n/4 + 1))
			if tr.Insert(relation.Int(k), rid) != nil {
				return false
			}
			ref[k] = append(ref[k], rid)
		}
		for k, rids := range ref {
			got := tr.Lookup(relation.Int(k))
			if len(got) != len(rids) {
				return false
			}
			for i := range got {
				if got[i] != rids[i] {
					return false
				}
			}
		}
		// Total count and order.
		it := tr.Ascend()
		prev := int64(-1 << 62)
		count := 0
		for {
			k, _, ok := it.Next()
			if !ok {
				break
			}
			if k.AsInt() < prev {
				return false
			}
			prev = k.AsInt()
			count++
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: Descend yields exactly the reverse of Ascend.
func TestDescendIsReverseOfAscend(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		n := 300
		for rid := 0; rid < n; rid++ {
			if tr.Insert(relation.Float(float64(rng.Intn(40))), rid) != nil {
				return false
			}
		}
		type pair struct {
			k   float64
			rid int
		}
		var asc, desc []pair
		it := tr.Ascend()
		for {
			k, rid, ok := it.Next()
			if !ok {
				break
			}
			asc = append(asc, pair{k.AsFloat(), rid})
		}
		it = tr.Descend()
		for {
			k, rid, ok := it.Next()
			if !ok {
				break
			}
			desc = append(desc, pair{k.AsFloat(), rid})
		}
		if len(asc) != len(desc) {
			return false
		}
		for i := range asc {
			// Keys reverse exactly; rid order within a key may differ
			// between directions, so compare keys only.
			if asc[i].k != desc[len(desc)-1-i].k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Insert(relation.Float(rng.Float64()), i)
	}
}

func BenchmarkLookup(b *testing.B) {
	tr := New()
	for i := 0; i < 100000; i++ {
		_ = tr.Insert(relation.Int(int64(i)), i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Lookup(relation.Int(int64(i % 100000)))
	}
}

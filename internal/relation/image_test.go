package relation

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// imageRel is a three-column relation: an Int/Float key with a NULL and a
// NaN, a NULL-free Float score and a string column.
func imageRel() *Relation {
	r := New("T", NewSchema(
		Column{Table: "T", Name: "key", Kind: KindFloat},
		Column{Table: "T", Name: "score", Kind: KindFloat},
		Column{Table: "T", Name: "name", Kind: KindString},
	))
	r.MustAppend(Tuple{Int(3), Float(0.5), String_("a")})
	r.MustAppend(Tuple{Null(), Float(-1), String_("b")})
	r.MustAppend(Tuple{Float(math.NaN()), Float(2), String_("c")})
	r.MustAppend(Tuple{Float(math.Copysign(0, -1)), Float(0), Null()})
	return r
}

// TestColumnImageValues checks what an image holds: every value widened as
// Value.Float64 widens it, NULL marks only where a NULL is, no marks at all
// for a NULL-free column, and no image for a column holding a string.
func TestColumnImageValues(t *testing.T) {
	r := imageRel()
	key := r.ColumnImage(0)
	if key == nil || len(key.Vals) != 4 {
		t.Fatalf("key image %+v, want 4 rows", key)
	}
	if key.Vals[0] != 3 || !math.IsNaN(key.Vals[2]) || key.Vals[3] != 0 || !math.Signbit(key.Vals[3]) {
		t.Fatalf("key image values %v", key.Vals)
	}
	for i, null := range []bool{false, true, false, false} {
		if key.IsNull(i) != null {
			t.Fatalf("row %d: IsNull=%v, want %v", i, key.IsNull(i), null)
		}
	}
	if score := r.ColumnImage(1); score == nil || score.Null != nil || score.Vals[1] != -1 {
		t.Fatalf("score image %+v: want values and no NULL marks", score)
	}
	if name := r.ColumnImage(2); name != nil {
		t.Fatalf("a string column has no numeric image, got %+v", name)
	}
}

// TestColumnImageConcurrentFirstUse has many readers ask for one column's
// column and sorted images at once: every one must get the same images (one
// build each, published once), and -race must see no unsynchronized access.
func TestColumnImageConcurrentFirstUse(t *testing.T) {
	r := imageRel()
	const readers = 16
	got := make([]*ColumnImage, readers)
	sorted := make([]*SortedImage, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < readers; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			if g%4 < 2 {
				got[g] = r.ColumnImage(g % 2)
				sorted[g] = r.SortedImage(g % 2)
			} else {
				sorted[g] = r.SortedImage(g % 2)
				got[g] = r.ColumnImage(g % 2)
			}
		}(g)
	}
	start.Done()
	done.Wait()
	for g := range got {
		if got[g] == nil || got[g] != got[g%2] {
			t.Fatalf("reader %d got image %p, reader %d %p: one column must be imaged once", g, got[g], g%2, got[g%2])
		}
		if sorted[g] == nil || sorted[g] != sorted[g%2] {
			t.Fatalf("reader %d got sorted image %p, reader %d %p: one column must be sorted once", g, sorted[g], g%2, sorted[g%2])
		}
	}
	if got[0] == got[1] || sorted[0] == sorted[1] {
		t.Fatal("two columns share an image")
	}
}

// TestColumnImageInvalidatedByAppend: an image describes the heap it was
// built from; once the heap grows the next use rebuilds it, and the old image
// (which a running query may still read) is left as it was.
func TestColumnImageInvalidatedByAppend(t *testing.T) {
	r := imageRel()
	old := r.ColumnImage(1)
	if again := r.ColumnImage(1); again != old {
		t.Fatal("an unchanged heap must reuse its image")
	}
	oldSorted := r.SortedImage(0)
	r.MustAppend(Tuple{Int(7), Null(), String_("d")})
	img := r.ColumnImage(1)
	if img == old || len(img.Vals) != 5 || !img.IsNull(4) {
		t.Fatalf("after Append: image %+v, want a rebuilt 5-row image with a NULL last", img)
	}
	if len(old.Vals) != 4 || old.Null != nil {
		t.Fatalf("the old image changed: %+v", old)
	}
	sorted := r.SortedImage(0)
	if sorted == oldSorted || !slices.Equal(sorted.Rids, []int32{2, 3, 0, 4}) {
		t.Fatalf("after Append: sorted image %v, want a rebuilt [2 3 0 4]", sorted.Rids)
	}
	if !slices.Equal(oldSorted.Rids, []int32{2, 3, 0}) {
		t.Fatalf("the old sorted image changed: %v", oldSorted.Rids)
	}
	r.DropSortedImage(0)
	if again := r.SortedImage(0); again == sorted || !slices.Equal(again.Rids, sorted.Rids) {
		t.Fatal("a dropped sorted image must be built again, to the same order")
	}
}

// TestColumnImageViews: each PartitionBy shard is a relation of its own,
// imaged independently of the parent and of the other shards — each image
// describes exactly its own rows.
func TestColumnImageViews(t *testing.T) {
	r := imageRel()
	base := r.ColumnImage(1)
	shards, err := r.PartitionBy(2, func(t Tuple) int { return int(t[1].AsFloat()) & 1 })
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for s, shard := range shards {
		img := shard.ColumnImage(1)
		if img == base || len(img.Vals) != shard.Cardinality() {
			t.Fatalf("shard %d image %+v over %d rows", s, img, shard.Cardinality())
		}
		for i, tup := range shard.Tuples() {
			if img.Vals[i] != tup[1].AsFloat() {
				t.Fatalf("shard %d row %d: image %v, tuple %v", s, i, img.Vals[i], tup[1])
			}
		}
		if sorted := shard.SortedImage(1); !slices.Equal(sorted.Rids, stableOrder(shard, 1)) {
			t.Fatalf("shard %d sorted image %v, want %v", s, sorted.Rids, stableOrder(shard, 1))
		}
		total += len(img.Vals)
	}
	if total != r.Cardinality() {
		t.Fatalf("shard images cover %d rows, the relation %d", total, r.Cardinality())
	}
}

// stableOrder is the reference order of a sorted image: the non-NULL rows
// of column col, stably sorted by CompareSortKey.
func stableOrder(r *Relation, col int) []int32 {
	var rids []int32
	for i, t := range r.Tuples() {
		if !t[col].IsNull() {
			rids = append(rids, int32(i))
		}
	}
	sort.SliceStable(rids, func(i, j int) bool {
		return CompareSortKey(r.Tuple(int(rids[i]))[col], r.Tuple(int(rids[j]))[col]) < 0
	})
	return rids
}

// randomKeyRel is a one-column relation of n random keys drawn from a domain
// of about n/4 values, each spelled as Int or Float at random, with NULLs.
func randomKeyRel(rng *rand.Rand, n int) *Relation {
	r := New("K", NewSchema(Column{Table: "K", Name: "k", Kind: KindFloat}))
	for i := 0; i < n; i++ {
		switch k := rng.Int63n(int64(n/4 + 1)); rng.Intn(8) {
		case 0:
			r.MustAppend(Tuple{Null()})
		case 1, 2, 3:
			r.MustAppend(Tuple{Int(k)})
		default:
			r.MustAppend(Tuple{Float(float64(k))})
		}
	}
	return r
}

// TestSortedImageDuplicateKeys: equal keys — Int and Float spellings of one
// number included — sit together in heap order, as a stable sort by
// CompareSortKey puts them, on random duplicate-heavy keys and on 500 rows
// cycling through seven keys.
func TestSortedImageDuplicateKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 17, 300, 2000} {
		r := randomKeyRel(rng, n)
		if got, want := r.SortedImage(0).Rids, stableOrder(r, 0); !slices.Equal(got, want) {
			t.Fatalf("%d keys: image %v, want %v", n, got, want)
		}
	}
	cyc := New("C", NewSchema(Column{Table: "C", Name: "k", Kind: KindInt}))
	for rid := 0; rid < 500; rid++ {
		cyc.MustAppend(Tuple{Int(int64(rid % 7))})
	}
	img := cyc.SortedImage(0)
	if got, want := img.Rids, stableOrder(cyc, 0); !slices.Equal(got, want) {
		t.Fatalf("500 rows over 7 keys: image %v, want %v", got, want)
	}
	for i := 1; i < len(img.Rids); i++ {
		if img.Key(i).AsInt() == img.Key(i-1).AsInt() && img.Rids[i] <= img.Rids[i-1] {
			t.Fatalf("key %d: rids %d, %d out of heap order", img.Key(i).AsInt(), img.Rids[i-1], img.Rids[i])
		}
	}
}

// TestSortedImageLarge: 10 000 distinct random floats come out ascending
// and complete, and walking the image backwards gives them descending.
func TestSortedImageLarge(t *testing.T) {
	const n = 10000
	rng := rand.New(rand.NewSource(42))
	floats := New("F", NewSchema(Column{Table: "F", Name: "f", Kind: KindFloat}))
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = rng.Float64()
		floats.MustAppend(Tuple{Float(keys[i])})
	}
	img := floats.SortedImage(0)
	if got, want := img.Rids, stableOrder(floats, 0); !slices.Equal(got, want) {
		t.Fatal("10 000 random floats: image out of order")
	}
	sort.Float64s(keys)
	for i := range keys {
		if img.Key(i).AsFloat() != keys[i] || img.Key(n-1-i).AsFloat() != keys[n-1-i] {
			t.Fatalf("position %d: key %v, want %v", i, img.Key(i), keys[i])
		}
	}
}

// TestSortedImageSkipsNulls: NULL rows are left out of the order (an
// all-NULL column has an empty image), NaN sorts below every number and a
// string column orders by its strings.
func TestSortedImageSkipsNulls(t *testing.T) {
	r := imageRel()
	if got := r.SortedImage(0).Rids; !slices.Equal(got, []int32{2, 3, 0}) {
		t.Fatalf("key image %v, want [2 3 0]: NaN first, -0, 3, the NULL left out", got)
	}
	if got := r.SortedImage(2).Rids; !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("name image %v, want [0 1 2]", got)
	}
	nulls := New("N", NewSchema(Column{Table: "N", Name: "k", Kind: KindInt}))
	for i := 0; i < 3; i++ {
		nulls.MustAppend(Tuple{Null()})
	}
	if got := nulls.SortedImage(0).Rids; len(got) != 0 {
		t.Fatalf("all-NULL image %v, want empty", got)
	}
}

// TestSortedImageLookupSmall: Lookup returns a key's rows in heap order, Int
// and Float spellings alike; a missing key, a NULL and a NaN find nothing.
func TestSortedImageLookupSmall(t *testing.T) {
	small := New("S", NewSchema(Column{Table: "S", Name: "k", Kind: KindInt}))
	for _, k := range []int64{5, 3, 8, 3, 1} {
		small.MustAppend(Tuple{Int(k)})
	}
	img := small.SortedImage(0)
	if len(img.Rids) != 5 {
		t.Fatalf("image holds %d rows, want 5", len(img.Rids))
	}
	for _, key := range []Value{Int(3), Float(3)} {
		if got := img.Lookup(key); !slices.Equal(got, []int32{1, 3}) {
			t.Fatalf("Lookup(%v) = %v, want [1 3]", key, got)
		}
	}
	for _, key := range []Value{Int(9), Int(0), Float(3.5), Null(), Float(math.NaN())} {
		if got := img.Lookup(key); len(got) != 0 {
			t.Fatalf("Lookup(%v) = %v, want nothing", key, got)
		}
	}
}

// TestSortedImageNaNKey: on keys {1, 2, NaN, 3} every number finds only its
// own row, and the NaN row is found under no key, NaN included.
func TestSortedImageNaNKey(t *testing.T) {
	nan := New("N", NewSchema(Column{Table: "N", Name: "k", Kind: KindFloat}))
	for _, k := range []float64{1, 2, math.NaN(), 3} {
		nan.MustAppend(Tuple{Float(k)})
	}
	img := nan.SortedImage(0)
	for k, want := range map[float64][]int32{1: {0}, 2: {1}, 3: {3}} {
		if got := img.Lookup(Float(k)); !slices.Equal(got, want) {
			t.Fatalf("keys {1 2 NaN 3}: Lookup(%v) = %v, want %v", k, got, want)
		}
	}
	if got := img.Lookup(Float(math.NaN())); len(got) != 0 {
		t.Fatalf("keys {1 2 NaN 3}: Lookup(NaN) = %v, want nothing", got)
	}
}

// TestSortedImageEmpty: the image of an empty relation holds no rows, finds
// nothing and seeks to position 0.
func TestSortedImageEmpty(t *testing.T) {
	img := New("E", NewSchema(Column{Table: "E", Name: "k", Kind: KindInt})).SortedImage(0)
	if len(img.Rids) != 0 {
		t.Fatalf("empty image %v", img.Rids)
	}
	if got := img.Lookup(Int(1)); len(got) != 0 {
		t.Fatalf("empty image Lookup = %v", got)
	}
	if s, p := img.Seek(Int(1)), img.SeekPast(Int(1)); s != 0 || p != 0 {
		t.Fatalf("empty image Seek = %d, SeekPast = %d", s, p)
	}
}

// TestSortedImageAgainstReferenceMap: on random duplicate-heavy keys,
// Lookup agrees with a map from each key to its rows in heap order.
func TestSortedImageAgainstReferenceMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		r := randomKeyRel(rng, rng.Intn(2000)+1)
		ref := map[float64][]int32{}
		for i, t := range r.Tuples() {
			if !t[0].IsNull() {
				ref[t[0].AsFloat()] = append(ref[t[0].AsFloat()], int32(i))
			}
		}
		img := r.SortedImage(0)
		for k, want := range ref {
			if got := img.Lookup(Int(int64(k))); !slices.Equal(got, want) {
				t.Fatalf("trial %d: Lookup(%v) = %v, want %v", trial, k, got, want)
			}
		}
	}
}

// TestSortedImageSeek: Seek finds the first key at or above its argument
// and SeekPast the first above it — between keys, on a key, below the first
// and past the last.
func TestSortedImageSeek(t *testing.T) {
	r := New("E", NewSchema(Column{Table: "E", Name: "k", Kind: KindInt}))
	for i := 0; i < 100; i++ {
		r.MustAppend(Tuple{Int(int64(i * 2))})
	}
	img := r.SortedImage(0)
	for _, tc := range []struct {
		key        Value
		seek, past int
	}{
		{Int(51), 26, 26}, {Int(50), 25, 26}, {Float(50), 25, 26}, {Int(-5), 0, 0},
		{Int(0), 0, 1}, {Int(198), 99, 100}, {Int(1000), 100, 100},
	} {
		if got := img.Seek(tc.key); got != tc.seek {
			t.Errorf("Seek(%v) = %d, want %d", tc.key, got, tc.seek)
		}
		if got := img.SeekPast(tc.key); got != tc.past {
			t.Errorf("SeekPast(%v) = %d, want %d", tc.key, got, tc.past)
		}
	}
}

// TestSortedImageRange: [Seek(lo), SeekPast(hi)) is the inclusive range
// [lo, hi] — the keys a brute-force filter keeps, in order — for bounds on
// keys, between keys and outside the domain.
func TestSortedImageRange(t *testing.T) {
	r := New("R", NewSchema(Column{Table: "R", Name: "k", Kind: KindInt}))
	for i := 0; i < 50; i++ {
		r.MustAppend(Tuple{Int(int64(i))})
	}
	img := r.SortedImage(0)
	for _, b := range []struct{ lo, hi Value }{
		{Int(10), Int(14)}, {Float(9.5), Float(14.5)}, {Int(0), Int(49)},
		{Int(-3), Int(2)}, {Int(48), Int(80)}, {Int(20), Int(20)}, {Int(30), Int(20)},
	} {
		var got, want []int64
		for p := img.Seek(b.lo); p < img.SeekPast(b.hi); p++ {
			got = append(got, img.Key(p).AsInt())
		}
		for i := int64(0); i < 50; i++ {
			if k := Int(i); k.Compare(b.lo) >= 0 && k.Compare(b.hi) <= 0 {
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("range [%v, %v] = %v, want %v", b.lo, b.hi, got, want)
		}
	}
}

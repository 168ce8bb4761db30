package relation

import (
	"math"
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
// image at once: every one must get the same image (one build, published
// once), and -race must see no unsynchronized access.
func TestColumnImageConcurrentFirstUse(t *testing.T) {
	r := imageRel()
	const readers = 16
	got := make([]*ColumnImage, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < readers; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			start.Wait()
			got[g] = r.ColumnImage(g % 2)
		}(g)
	}
	start.Done()
	done.Wait()
	for g := range got {
		if got[g] == nil || got[g] != got[g%2] {
			t.Fatalf("reader %d got image %p, reader %d %p: one column must be imaged once", g, got[g], g%2, got[g%2])
		}
	}
	if got[0] == got[1] {
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
	r.MustAppend(Tuple{Int(7), Null(), String_("d")})
	img := r.ColumnImage(1)
	if img == old || len(img.Vals) != 5 || !img.IsNull(4) {
		t.Fatalf("after Append: image %+v, want a rebuilt 5-row image with a NULL last", img)
	}
	if len(old.Vals) != 4 || old.Null != nil {
		t.Fatalf("the old image changed: %+v", old)
	}
}

// TestColumnImageViews: a Rename view and each PartitionBy shard are
// relations of their own, imaged independently of the parent and of each
// other — each image describes exactly its own rows.
func TestColumnImageViews(t *testing.T) {
	r := imageRel()
	base := r.ColumnImage(1)
	alias := r.Rename("U")
	view := alias.ColumnImage(1)
	if view == base || len(view.Vals) != len(base.Vals) || view.Vals[2] != base.Vals[2] {
		t.Fatalf("Rename view image %+v, base %+v: want an image of its own over the same rows", view, base)
	}
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
		total += len(img.Vals)
	}
	if total != r.Cardinality() {
		t.Fatalf("shard images cover %d rows, the relation %d", total, r.Cardinality())
	}
}

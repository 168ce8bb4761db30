package relation

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// ColumnImage is the numeric image of one stored column: Vals[i] is heap row
// i's value widened to float64 exactly as Value.Float64 widens it (Int(3) and
// Float(3) read alike, NaN stays NaN), and Null[i] marks a NULL row, whose
// Vals entry is 0. Null is nil when the column holds no NULL. An image is
// immutable once built, so readers share it without locking.
type ColumnImage struct {
	Vals []float64
	Null []bool
}

// IsNull reports whether row i is NULL.
func (c *ColumnImage) IsNull(i int) bool { return c.Null != nil && c.Null[i] }

// imageSet holds the images of one heap length: a column image and a sorted
// image slot per schema column, each filled on first use.
type imageSet struct {
	rows   int
	cols   []atomic.Pointer[ColumnImage]
	sorted []atomic.Pointer[SortedImage]
}

// notNumeric fills the slot of a column holding a string or bool value, so
// the scan that found one is not repeated.
var notNumeric = new(ColumnImage)

// ColumnImage returns the numeric image of column col, or nil when the column
// holds a string or bool value. Like an index it is catalog memory, not query
// memory: built once per (relation, column) on first use — concurrent first
// uses build it once — and shared by every reader until the heap grows, when
// the next use rebuilds it. A Rename or PartitionBy view is a relation of its
// own with images of its own.
func (r *Relation) ColumnImage(col int) *ColumnImage {
	if set := r.currentImages(); set != nil {
		if img := set.cols[col].Load(); img != nil {
			return img.numeric()
		}
	}
	r.imageMu.Lock()
	defer r.imageMu.Unlock()
	slot := &r.lockedImages().cols[col]
	img := slot.Load()
	if img == nil {
		img = buildImage(r.tuples, col)
		slot.Store(img)
	}
	return img.numeric()
}

// SortedImage returns the sorted image of column col, cached and shared
// exactly as ColumnImage is: built on first use, rebuilt on the first use
// after the heap grows, so a reader always sees every row.
func (r *Relation) SortedImage(col int) *SortedImage {
	if set := r.currentImages(); set != nil {
		if img := set.sorted[col].Load(); img != nil {
			return img
		}
	}
	r.imageMu.Lock()
	defer r.imageMu.Unlock()
	slot := &r.lockedImages().sorted[col]
	img := slot.Load()
	if img == nil {
		img = buildSorted(r.tuples, col)
		slot.Store(img)
	}
	return img
}

// DropSortedImage releases column col's sorted image, so the next
// SortedImage builds it again. A reader still holding the old image keeps it.
func (r *Relation) DropSortedImage(col int) {
	r.imageMu.Lock()
	defer r.imageMu.Unlock()
	if set := r.currentImages(); set != nil {
		set.sorted[col].Store(nil)
	}
}

// currentImages returns the image set of the heap as it is now, or nil when
// none has been made since the heap last grew.
func (r *Relation) currentImages() *imageSet {
	if set := r.images.Load(); set != nil && set.rows == len(r.tuples) {
		return set
	}
	return nil
}

// lockedImages is currentImages, making an empty set when there is none.
// imageMu must be held.
func (r *Relation) lockedImages() *imageSet {
	set := r.currentImages()
	if set == nil {
		n := r.schema.Len()
		set = &imageSet{
			rows:   len(r.tuples),
			cols:   make([]atomic.Pointer[ColumnImage], n),
			sorted: make([]atomic.Pointer[SortedImage], n),
		}
		r.images.Store(set)
	}
	return set
}

// numeric maps the notNumeric marker to nil.
func (c *ColumnImage) numeric() *ColumnImage {
	if c == notNumeric {
		return nil
	}
	return c
}

// buildImage reads column col of every tuple into a fresh image.
func buildImage(tuples []Tuple, col int) *ColumnImage {
	img := &ColumnImage{Vals: make([]float64, len(tuples))}
	for i, t := range tuples {
		if f, ok := t[col].Float64(); ok {
			img.Vals[i] = f
			continue
		}
		if !t[col].IsNull() {
			return notNumeric
		}
		if img.Null == nil {
			img.Null = make([]bool, len(tuples))
		}
		img.Null[i] = true
	}
	return img
}

// SortedImage is the ordered image of one stored column, the engine's index:
// Rids holds the heap rows whose value is not NULL, in ascending
// CompareSortKey order of that value, equal values in heap order (Int(3) and
// Float(3) are one value, as are -0 and +0; NaN sorts below every number).
// Walking Rids forward is an ascending index scan, walking it backward a
// descending one. A row id is 4 bytes: Append keeps a heap within MaxRows.
// Like a ColumnImage it is immutable once built and read without locking.
type SortedImage struct {
	Rids []int32
	// rows is the heap the image was built over, for Key.
	rows []Tuple
	col  int
}

// buildSorted sorts the non-NULL rows of column col; the row id breaks ties,
// so the unstable sort yields the stable order. A numeric column is sorted as
// (float64 key, row id) pairs, which compare without reaching into the tuples
// and agree with CompareSortKey, which widens numbers alike.
func buildSorted(tuples []Tuple, col int) *SortedImage {
	s := &SortedImage{rows: tuples[:len(tuples):len(tuples)], col: col}
	if keys, ok := floatKeys(tuples, col); ok {
		slices.SortFunc(keys, func(a, b floatKey) int {
			if c := cmp.Compare(a.f, b.f); c != 0 {
				return c
			}
			return cmp.Compare(a.rid, b.rid)
		})
		s.Rids = make([]int32, len(keys))
		for i, k := range keys {
			s.Rids[i] = k.rid
		}
		return s
	}
	s.Rids = make([]int32, 0, len(tuples))
	for i, t := range tuples {
		if !t[col].IsNull() {
			s.Rids = append(s.Rids, int32(i))
		}
	}
	slices.SortFunc(s.Rids, func(a, b int32) int {
		if c := CompareSortKey(tuples[a][col], tuples[b][col]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return s
}

// floatKey is one row of a numeric column's sort: its key and row id.
type floatKey struct {
	f   float64
	rid int32
}

// floatKeys reads the non-NULL values of column col as floatKeys; ok is false
// when the column holds a string or bool.
func floatKeys(tuples []Tuple, col int) (keys []floatKey, ok bool) {
	keys = make([]floatKey, 0, len(tuples))
	for i, t := range tuples {
		if f, ok := t[col].Float64(); ok {
			keys = append(keys, floatKey{f, int32(i)})
		} else if !t[col].IsNull() {
			return nil, false
		}
	}
	return keys, true
}

// Key returns the value at position i of the order.
func (s *SortedImage) Key(i int) Value { return s.rows[s.Rids[i]][s.col] }

// Seek returns the first position whose key is at least key, len(Rids) when
// there is none.
func (s *SortedImage) Seek(key Value) int { return s.search(key, false) }

// SeekPast returns the first position whose key is above key, len(Rids) when
// there is none.
func (s *SortedImage) SeekPast(key Value) int { return s.search(key, true) }

// Lookup returns the rows whose key equals key, in heap order, as a subslice
// of Rids that callers must not modify. A NULL or NaN key equals nothing, as
// in a hash join. The equal run is walked rather than searched: a caller
// reads every row of it anyway, and a unique key's run ends at the next
// position.
func (s *SortedImage) Lookup(key Value) []int32 {
	if f, ok := key.Float64(); key.IsNull() || ok && f != f {
		return nil
	}
	lo := s.Seek(key)
	hi := lo
	for hi < len(s.Rids) && CompareSortKey(s.Key(hi), key) == 0 {
		hi++
	}
	return s.Rids[lo:hi:hi]
}

// search is the binary search behind Seek (past false: first key >= key) and
// SeekPast (past true: first key > key).
func (s *SortedImage) search(key Value, past bool) int {
	lo, hi := 0, len(s.Rids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := CompareSortKey(s.Key(mid), key); c < 0 || past && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

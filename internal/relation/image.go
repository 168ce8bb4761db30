package relation

import "sync/atomic"

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

// imageSet holds the images of one heap length: a slot per schema column,
// filled on first use.
type imageSet struct {
	rows int
	cols []atomic.Pointer[ColumnImage]
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
	if set := r.images.Load(); set != nil && set.rows == len(r.tuples) {
		if img := set.cols[col].Load(); img != nil {
			return img.numeric()
		}
	}
	r.imageMu.Lock()
	defer r.imageMu.Unlock()
	set := r.images.Load()
	if set == nil || set.rows != len(r.tuples) {
		set = &imageSet{rows: len(r.tuples), cols: make([]atomic.Pointer[ColumnImage], r.schema.Len())}
		r.images.Store(set)
	}
	img := set.cols[col].Load()
	if img == nil {
		img = buildImage(r.tuples, col)
		set.cols[col].Store(img)
	}
	return img.numeric()
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

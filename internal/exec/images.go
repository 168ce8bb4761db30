package exec

import (
	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// This file is the one column-image binding of the rank operators (DESIGN
// §17). A rank input that reads a stored relation knows each row's row id,
// and the relation keeps every numeric column as an immutable []float64
// image. The input then reads the row's score and join key from those images
// at the row id, and keeps the tuple only as a reference, read when a result
// row is built. A rank join pulls many rows it never emits; a pulled row's
// values sit at a random heap position, and that load, not the evaluation
// around it, is what reading them costs.
//
// The score binding (scoreImages) also serves the two readers outside the
// rank joins: a Sort that keys a whole lent heap, and TA's lists.
//
// Whatever has no image — a score that is neither a bare numeric column nor
// a sum of them, a computed or non-numeric key, an input that is not a row
// source — is evaluated on the tuple, through the same admit and key calls.
// So is everything NRJN reads: no benchmark workload runs it, so it binds no
// image (DESIGN §17).

// rowSource is an operator that reads a stored relation by row id:
// IndexScan, IndexRangeScan, and a Sort that walks its index or orders a
// whole lent heap. Its Schema is the relation's.
type rowSource interface {
	Operator
	// storedRows reports, once the operator is open, the relation whose heap
	// nextRow's row ids index; nil when this run reads no such heap.
	storedRows() *relation.Relation
	// nextRow is Next with the row id of the tuple it returns; it may be
	// called only while storedRows is not nil.
	nextRow() (t relation.Tuple, rid int32, ok bool, err error)
}

// wholeHeap returns the relation whose whole heap op lends (tupleLender),
// so that lent position e is row id e: a bare SeqScan nothing has read from.
// It is nil for any other operator; call it before lendRest.
func wholeHeap(op Operator) *relation.Relation {
	if scan, ok := op.(*SeqScan); ok && scan.pos == 0 {
		return scan.Rel
	}
	return nil
}

// scoreImage is one weighted column of a score: the column's position in the
// input's schema and, while a run reads the score from images, the column's
// image.
type scoreImage struct {
	w   float64
	col int
	img *relation.ColumnImage
}

// maxImageTerms bounds the terms of a score read from images, so they fit in
// the reader itself and binding a freshly compiled tree allocates nothing
// for them (a slice made at bind cost each traced point-topk session, which
// compiles its tree fresh, 2 objects). The benchmark's plans score each
// stored input by one column; a score of more terms is read from the tuple.
const maxImageTerms = 4

// scoreImages is the one score-image binding, shared by the rank inputs
// (rankedInput), a Sort ordering a whole lent heap and TA: a score resolved
// to weighted columns of the input's schema, and while a run reads a stored
// relation by row id, those columns' images. imageScore then computes a
// row's score from the images exactly as the score expression computes it
// from the tuple.
type scoreImages struct {
	// terms[:nterms] are the score's weighted columns in term order; sum is
	// set when they are a ScoreSum's (0 plus each weighted term, in order),
	// clear for one column read as weight times its value. imaged is set
	// while a run reads the score from their images.
	terms  [maxImageTerms]scoreImage
	nterms int
	sum    bool
	imaged bool
}

// setScore resolves a score that is a bare column of sch, or a ScoreSum of
// at most maxImageTerms bare columns, into terms; any other score leaves
// none.
func (b *scoreImages) setScore(score expr.Expr, sch *relation.Schema) {
	b.nterms = 0
	if col, ok := expr.ColIndex(score, sch); ok {
		b.setColumn(1, col)
		return
	}
	sum, ok := score.(expr.ScoreSum)
	if !ok || len(sum.Terms) > maxImageTerms {
		return
	}
	for i, t := range sum.Terms {
		col, ok := expr.ColIndex(t.E, sch)
		if !ok {
			return
		}
		b.terms[i] = scoreImage{w: t.Weight, col: col}
	}
	b.nterms, b.sum = len(sum.Terms), true
}

// setColumn resolves the score w times column col (TA's weighted list, or a
// bare column with w = 1, which reads it unchanged).
func (b *scoreImages) setColumn(w float64, col int) {
	b.terms[0] = scoreImage{w: w, col: col}
	b.nterms, b.sum = 1, false
}

// bindScore binds rel's images for the score, reporting whether every term's
// column has one (imaged). An image taken now covers every row id the heap
// holds, since the heap only grows.
func (b *scoreImages) bindScore(rel *relation.Relation) bool {
	b.imaged = b.nterms > 0
	for i := range b.terms[:b.nterms] {
		t := &b.terms[i]
		if t.img = rel.ColumnImage(t.col); t.img == nil {
			b.imaged = false
		}
	}
	return b.imaged
}

// unbindScore drops the image handles, so a closed operator holds no image.
func (b *scoreImages) unbindScore() {
	b.imaged = false
	for i := range b.terms[:b.nterms] {
		b.terms[i].img = nil
	}
}

// imageScore returns row rid's score and whether it is NULL, computed as the
// score expression computes it (ScoreSum.Bind: the same terms in the same
// order, the same arithmetic, NULL as soon as one term is). The images hold
// numbers widened as Value.Float64 widens them, so Int(3) reads as Float(3).
func (b *scoreImages) imageScore(rid int32) (float64, bool) {
	if !b.sum {
		t := &b.terms[0]
		return t.w * t.img.Vals[rid], t.img.IsNull(int(rid))
	}
	total := 0.0
	for _, t := range b.terms[:b.nterms] {
		if t.img.IsNull(int(rid)) {
			return 0, true
		}
		total += t.w * t.img.Vals[rid]
	}
	return total, false
}

// openRows binds the run's reads after the input opened: an input that
// reads a stored relation by row id is read through nextRow, its score and
// the given keys from the relation's images (bindImages); any other input
// is read by Next, on the tuple path.
func (r *rankedInput) openRows(keys ...*keyEval) {
	r.unbindImages(keys...)
	if src, ok := r.in.(rowSource); ok {
		if rel := src.storedRows(); rel != nil {
			r.rowSrc = src
			r.bindImages(rel, keys...)
		}
	}
}

// bindImages binds rel's column images for the rows the input reads from
// rel's heap, row id for row id: the score's when every term's column has
// one, each key's when the key is a bare column with one. An image taken
// now covers every row id the opened input returns, since the heap only
// grows.
func (r *rankedInput) bindImages(rel *relation.Relation, keys ...*keyEval) {
	r.bindScore(rel)
	for _, k := range keys {
		if k != nil && k.bare {
			k.img = rel.ColumnImage(k.col)
		}
	}
}

// unbindImages returns the input and the given keys to the tuple path and
// drops their image handles, so a closed operator holds no image.
func (r *rankedInput) unbindImages(keys ...*keyEval) {
	r.rowSrc = nil
	r.unbindScore()
	for _, k := range keys {
		if k != nil {
			k.img, k.v = nil, relation.Value{}
		}
	}
}

// TuplePath returns in behind a pass-through that offers only the Operator
// methods, so a rank operator reading it takes the tuple path: it neither
// reads rows by row id nor borrows a lent heap, and evaluates every score
// and key on the tuple. The scalar reference compile wraps each rank-operator
// input in one, so the differential oracle compares the two paths.
func TuplePath(in Operator) Operator { return tuplePath{in} }

type tuplePath struct{ Operator }

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
// Whatever has no image — a score that is not a sum of bare numeric
// columns, a computed or non-numeric key, an input that is not a row source
// — is evaluated on the tuple, through the same admit and key calls. So is
// everything NRJN reads: no benchmark workload runs it, so it binds no
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

// scoreImage is one weighted column of a ScoreSum score: the column's
// position in the input's schema and, while a run reads the score from
// images, the column's image.
type scoreImage struct {
	w   float64
	col int
	img *relation.ColumnImage
}

// maxImageTerms bounds the terms of a score read from images, so they fit in
// the rank input itself and binding a freshly compiled tree allocates nothing
// for them (a slice made at bind cost each traced point-topk session, which
// compiles its tree fresh, 2 objects). The benchmark's plans score each
// stored input by one column; a score of more terms is read from the tuple.
const maxImageTerms = 4

// setTerms resolves a score that is a ScoreSum of at most maxImageTerms bare
// columns of sch into r's terms, in term order; any other score leaves none.
func (r *rankedInput) setTerms(score expr.Expr, sch *relation.Schema) {
	r.nterms = 0
	sum, ok := score.(expr.ScoreSum)
	if !ok || len(sum.Terms) > maxImageTerms {
		return
	}
	for i, t := range sum.Terms {
		col, ok := expr.ColIndex(t.E, sch)
		if !ok {
			return
		}
		r.terms[i] = scoreImage{w: t.Weight, col: col}
	}
	r.nterms = len(sum.Terms)
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
	r.imaged = r.nterms > 0
	for i := range r.terms[:r.nterms] {
		t := &r.terms[i]
		if t.img = rel.ColumnImage(t.col); t.img == nil {
			r.imaged = false
		}
	}
	for _, k := range keys {
		if k != nil && k.bare {
			k.img = rel.ColumnImage(k.col)
		}
	}
}

// unbindImages returns the input and the given keys to the tuple path and
// drops their image handles, so a closed operator holds no image.
func (r *rankedInput) unbindImages(keys ...*keyEval) {
	r.rowSrc, r.imaged = nil, false
	for i := range r.terms[:r.nterms] {
		r.terms[i].img = nil
	}
	for _, k := range keys {
		if k != nil {
			k.img, k.v = nil, relation.Value{}
		}
	}
}

// imageScore returns row rid's score and whether it is NULL, computed as
// ScoreSum.Bind computes it: the same terms in the same order, the same
// arithmetic, NULL as soon as one term is.
func (r *rankedInput) imageScore(rid int32) (float64, bool) {
	total := 0.0
	for _, t := range r.terms[:r.nterms] {
		if t.img.IsNull(int(rid)) {
			return 0, true
		}
		total += t.w * t.img.Vals[rid]
	}
	return total, false
}

// TuplePath returns in behind a pass-through that offers only the Operator
// methods, so a rank operator reading it takes the tuple path: it neither
// reads rows by row id nor borrows a lent heap, and evaluates every score
// and key on the tuple. The scalar reference compile wraps each rank-operator
// input in one, so the differential oracle compares the two paths.
func TuplePath(in Operator) Operator { return tuplePath{in} }

type tuplePath struct{ Operator }

package exec

import (
	"context"
	"fmt"

	"rankopt/internal/catalog"
	"rankopt/internal/relation"
)

// SeqScan reads a relation in heap order.
type SeqScan struct {
	Rel *relation.Relation
	pos int
}

// NewSeqScan constructs a sequential scan over rel.
func NewSeqScan(rel *relation.Relation) *SeqScan { return &SeqScan{Rel: rel} }

// Schema implements Operator.
func (s *SeqScan) Schema() *relation.Schema { return s.Rel.Schema() }

// Open implements Operator.
func (s *SeqScan) Open(context.Context) error { s.pos = 0; return nil }

// Next implements Operator.
func (s *SeqScan) Next() (relation.Tuple, bool, error) {
	if s.pos >= s.Rel.Cardinality() {
		return nil, false, nil
	}
	t := s.Rel.Tuple(s.pos)
	s.pos++
	return t, true, nil
}

// NextBatch implements BatchOperator: the batch borrows a window of the
// relation's heap directly — no interface call per tuple, no header copies.
func (s *SeqScan) NextBatch(out *Batch, max int) (bool, error) {
	tuples := s.Rel.Tuples()
	if s.pos >= len(tuples) {
		out.Reset()
		return false, nil
	}
	end := s.pos + max
	if end > len(tuples) {
		end = len(tuples)
	}
	out.SetView(tuples[s.pos:end])
	s.pos = end
	return true, nil
}

// lendRest implements tupleLender: the rest of the heap, not a copy of it.
func (s *SeqScan) lendRest() []relation.Tuple {
	rest := s.Rel.Tuples()[s.pos:]
	s.pos += len(rest)
	return rest[:len(rest):len(rest)]
}

// Close implements Operator.
func (s *SeqScan) Close() error { return nil }

// IndexScan reads a relation through an index in key order: it walks the
// index's sorted image forward, or backward for a descending scan — the
// sorted access rank joins require (highest score first), equal keys in
// reverse heap order.
type IndexScan struct {
	Rel  *relation.Relation
	Idx  *catalog.Index
	Desc bool

	// rids are the image positions not yet read: the scan takes from the
	// front, or from the back when Desc.
	rids []int32
}

// NewIndexScan constructs an index-ordered scan.
func NewIndexScan(rel *relation.Relation, idx *catalog.Index, desc bool) *IndexScan {
	return &IndexScan{Rel: rel, Idx: idx, Desc: desc}
}

// Schema implements Operator.
func (s *IndexScan) Schema() *relation.Schema { return s.Rel.Schema() }

// Open implements Operator.
func (s *IndexScan) Open(context.Context) error {
	if s.Idx == nil {
		return fmt.Errorf("exec: index scan without index on %s", s.Rel.Name)
	}
	s.rids = s.Idx.Image().Rids
	return nil
}

// next takes the next row id in scan order; ok is false when none is left.
func (s *IndexScan) next() (rid int32, ok bool) {
	n := len(s.rids)
	if n == 0 {
		return 0, false
	}
	if s.Desc {
		rid, s.rids = s.rids[n-1], s.rids[:n-1]
	} else {
		rid, s.rids = s.rids[0], s.rids[1:]
	}
	return rid, true
}

// Next implements Operator.
func (s *IndexScan) Next() (relation.Tuple, bool, error) {
	t, _, ok, err := s.nextRow()
	return t, ok, err
}

// storedRows implements rowSource.
func (s *IndexScan) storedRows() *relation.Relation { return s.Rel }

// nextRow implements rowSource.
func (s *IndexScan) nextRow() (relation.Tuple, int32, bool, error) {
	rid, ok := s.next()
	if !ok {
		return nil, 0, false, nil
	}
	if int(rid) >= s.Rel.Cardinality() {
		return nil, 0, false, fmt.Errorf("exec: index %s holds rid %d beyond relation %s", s.Idx.Name, rid, s.Rel.Name)
	}
	return s.Rel.Tuple(int(rid)), rid, true, nil
}

// NextBatch implements BatchOperator: the interface-call and validity-check
// overhead is amortized per batch.
func (s *IndexScan) NextBatch(out *Batch, max int) (bool, error) {
	out.Reset()
	n := s.Rel.Cardinality()
	for out.Len() < max {
		rid, ok := s.next()
		if !ok {
			break
		}
		if int(rid) >= n {
			return false, fmt.Errorf("exec: index %s holds rid %d beyond relation %s", s.Idx.Name, rid, s.Rel.Name)
		}
		out.Append(s.Rel.Tuple(int(rid)))
	}
	return out.Len() > 0, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error { s.rids = nil; return nil }

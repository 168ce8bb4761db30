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

// IndexScan reads a relation through a B+tree index in key order.
// Descending scans deliver the sorted access rank-joins require (highest
// score first).
type IndexScan struct {
	Rel  *relation.Relation
	Idx  *catalog.Index
	Desc bool

	it interface {
		Next() (relation.Value, int, bool)
	}
}

// NewIndexScan constructs an index-ordered scan.
func NewIndexScan(rel *relation.Relation, idx *catalog.Index, desc bool) *IndexScan {
	return &IndexScan{Rel: rel, Idx: idx, Desc: desc}
}

// Schema implements Operator.
func (s *IndexScan) Schema() *relation.Schema { return s.Rel.Schema() }

// Open implements Operator.
func (s *IndexScan) Open(context.Context) error {
	if s.Idx == nil || s.Idx.Tree == nil {
		return fmt.Errorf("exec: index scan without index on %s", s.Rel.Name)
	}
	if s.Desc {
		s.it = s.Idx.Tree.Descend()
	} else {
		s.it = s.Idx.Tree.Ascend()
	}
	return nil
}

// Next implements Operator.
func (s *IndexScan) Next() (relation.Tuple, bool, error) {
	_, rid, ok := s.it.Next()
	if !ok {
		return nil, false, nil
	}
	if rid < 0 || rid >= s.Rel.Cardinality() {
		return nil, false, fmt.Errorf("exec: index %s holds rid %d beyond relation %s", s.Idx.Name, rid, s.Rel.Name)
	}
	return s.Rel.Tuple(rid), true, nil
}

// NextBatch implements BatchOperator: the tree iterator advances per rid but
// the interface-call and validity-check overhead is amortized per batch.
func (s *IndexScan) NextBatch(out *Batch, max int) (bool, error) {
	out.Reset()
	n := s.Rel.Cardinality()
	for out.Len() < max {
		_, rid, ok := s.it.Next()
		if !ok {
			break
		}
		if rid < 0 || rid >= n {
			return false, fmt.Errorf("exec: index %s holds rid %d beyond relation %s", s.Idx.Name, rid, s.Rel.Name)
		}
		out.Append(s.Rel.Tuple(rid))
	}
	return out.Len() > 0, nil
}

// Close implements Operator.
func (s *IndexScan) Close() error { s.it = nil; return nil }

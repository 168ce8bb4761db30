package exec

import (
	"context"
	"fmt"

	"rankopt/internal/catalog"
	"rankopt/internal/relation"
)

// IndexRangeScan reads the tuples whose index key falls in [Lo, Hi] (each
// bound optional, both inclusive) in ascending key order. The optimizer uses
// it for sargable filters — `col >= c`, `col = c`, ... — touching only the
// matching fraction of an indexed relation; strict inequalities keep the
// original predicate as a residual filter above the scan.
type IndexRangeScan struct {
	Rel *relation.Relation
	Idx *catalog.Index
	// Lo and Hi bound the scanned key range when HasLo / HasHi are set.
	Lo, Hi       relation.Value
	HasLo, HasHi bool

	it interface {
		Next() (relation.Value, int, bool)
	}
	done bool
}

// NewIndexRangeScan constructs the scan.
func NewIndexRangeScan(rel *relation.Relation, idx *catalog.Index, lo, hi relation.Value, hasLo, hasHi bool) *IndexRangeScan {
	return &IndexRangeScan{Rel: rel, Idx: idx, Lo: lo, Hi: hi, HasLo: hasLo, HasHi: hasHi}
}

// Schema implements Operator.
func (s *IndexRangeScan) Schema() *relation.Schema { return s.Rel.Schema() }

// Open implements Operator.
func (s *IndexRangeScan) Open(context.Context) error {
	if s.Idx == nil || s.Idx.Tree == nil {
		return fmt.Errorf("exec: index range scan without index on %s", s.Rel.Name)
	}
	if s.HasLo {
		s.it = s.Idx.Tree.AscendFrom(s.Lo)
	} else {
		s.it = s.Idx.Tree.Ascend()
	}
	s.done = false
	return nil
}

// Next implements Operator.
func (s *IndexRangeScan) Next() (relation.Tuple, bool, error) {
	if s.done {
		return nil, false, nil
	}
	k, rid, ok := s.it.Next()
	if !ok {
		s.done = true
		return nil, false, nil
	}
	if s.HasHi && k.Compare(s.Hi) > 0 {
		s.done = true
		return nil, false, nil
	}
	return s.Rel.Tuple(rid), true, nil
}

// Close implements Operator.
func (s *IndexRangeScan) Close() error {
	s.it = nil
	return nil
}

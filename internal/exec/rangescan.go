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

	// rids are the image positions in range not yet read.
	rids []int32
}

// NewIndexRangeScan constructs the scan.
func NewIndexRangeScan(rel *relation.Relation, idx *catalog.Index, lo, hi relation.Value, hasLo, hasHi bool) *IndexRangeScan {
	return &IndexRangeScan{Rel: rel, Idx: idx, Lo: lo, Hi: hi, HasLo: hasLo, HasHi: hasHi}
}

// Schema implements Operator.
func (s *IndexRangeScan) Schema() *relation.Schema { return s.Rel.Schema() }

// Open implements Operator: two binary searches in the index's sorted image
// bound the run of rows in range.
func (s *IndexRangeScan) Open(context.Context) error {
	if s.Idx == nil {
		return fmt.Errorf("exec: index range scan without index on %s", s.Rel.Name)
	}
	img := s.Idx.Image()
	lo, hi := 0, len(img.Rids)
	if s.HasLo {
		lo = img.Seek(s.Lo)
	}
	if s.HasHi {
		hi = max(lo, img.SeekPast(s.Hi))
	}
	s.rids = img.Rids[lo:hi]
	return nil
}

// Next implements Operator.
func (s *IndexRangeScan) Next() (relation.Tuple, bool, error) {
	t, _, ok, err := s.nextRow()
	return t, ok, err
}

// storedRows implements rowSource.
func (s *IndexRangeScan) storedRows() *relation.Relation { return s.Rel }

// nextRow implements rowSource.
func (s *IndexRangeScan) nextRow() (relation.Tuple, int32, bool, error) {
	if len(s.rids) == 0 {
		return nil, 0, false, nil
	}
	rid := s.rids[0]
	s.rids = s.rids[1:]
	return s.Rel.Tuple(int(rid)), rid, true, nil
}

// Close implements Operator.
func (s *IndexRangeScan) Close() error {
	s.rids = nil
	return nil
}

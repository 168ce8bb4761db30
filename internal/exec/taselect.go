package exec

import (
	"context"
	"fmt"

	"rankopt/internal/catalog"
	"rankopt/internal/ranking"
	"rankopt/internal/relation"
)

// TAInput describes one ranked list feeding a TASelect: the relation, a
// descending-capable index on its score column, an index on its (unique) id
// column for random access, and the list's weight in the combining function.
type TAInput struct {
	Rel      *relation.Relation
	ScoreIdx *catalog.Index
	IDIdx    *catalog.Index
	// ScorePos and IDPos are the column positions within Rel's schema.
	ScorePos, IDPos int
	Weight          float64
}

// TASelect answers a top-k selection with Fagin's Threshold Algorithm: all
// inputs rank the same objects (joined on a unique id), so instead of
// joining, the operator walks each score index in descending order and
// randomly probes the others, stopping at the TA threshold. It produces the
// same tuples as the m-way id-join ranked by combined score — but an object
// missing from any input is not a join result, so such TA answers are
// discarded and the algorithm retries with a doubled k until the demand is
// met or the inputs are exhausted.
type TASelect struct {
	Inputs []TAInput
	// K is the number of ranked results to produce.
	K int
	// Budget, when set, is charged for every materialized result row.
	Budget *Budget

	schema *relation.Schema
	out    []relation.Tuple
	pos    int
	stats  ranking.Stats
	acct   accountant
}

// NewTASelect constructs the operator.
func NewTASelect(inputs []TAInput, k int) (*TASelect, error) {
	if len(inputs) < 1 {
		return nil, fmt.Errorf("exec: TASelect needs inputs")
	}
	if k <= 0 {
		return nil, fmt.Errorf("exec: TASelect needs positive k, got %d", k)
	}
	sch := inputs[0].Rel.Schema()
	for _, in := range inputs[1:] {
		sch = sch.Concat(in.Rel.Schema())
	}
	for i, in := range inputs {
		if in.ScoreIdx == nil || in.IDIdx == nil {
			return nil, fmt.Errorf("exec: TASelect input %d lacks indexes", i)
		}
	}
	return &TASelect{Inputs: inputs, K: k, schema: sch}, nil
}

// Schema implements Operator.
func (t *TASelect) Schema() *relation.Schema { return t.schema }

// AccessStats returns the sorted/random access counts of the last Open.
func (t *TASelect) AccessStats() ranking.Stats { return t.stats }

// taAbort is shared by the sources of one TA round. ranking.Source has no
// error return, so the source whose poll first sees a done context records
// the typed error here and every source reports exhaustion from then on,
// which ends ranking.TA's access loop.
type taAbort struct {
	cancel canceller
	err    error
}

// taSource adapts one input to the ranking package's Source interface.
type taSource struct {
	in TAInput
	it interface {
		Next() (relation.Value, int, bool)
	}
	abort *taAbort
}

func newTASource(in TAInput, abort *taAbort) *taSource {
	return &taSource{in: in, it: in.ScoreIdx.Tree.Descend(), abort: abort}
}

// Next implements ranking.SortedAccess, polling the query context on the
// canceller cadence.
func (s *taSource) Next() (int64, float64, bool) {
	for {
		if s.abort.err == nil {
			s.abort.err = s.abort.cancel.poll()
		}
		if s.abort.err != nil {
			return 0, 0, false
		}
		_, rid, ok := s.it.Next()
		if !ok {
			return 0, 0, false
		}
		tup := s.in.Rel.Tuple(rid)
		id := tup[s.in.IDPos]
		score := tup[s.in.ScorePos]
		if id.IsNull() || score.IsNull() {
			continue
		}
		return id.AsInt(), score.AsFloat(), true
	}
}

// Probe implements ranking.RandomAccess.
func (s *taSource) Probe(id int64) (float64, bool) {
	rids := s.in.IDIdx.Tree.Lookup(relation.Int(id))
	if len(rids) == 0 {
		return 0, false
	}
	v := s.in.Rel.Tuple(rids[0])[s.in.ScorePos]
	if v.IsNull() {
		return 0, false
	}
	return v.AsFloat(), true
}

// Open implements Operator: runs TA under the query context and materializes
// the joined top-k rows, charging each to the budget. A failed Open leaves
// nothing charged.
func (t *TASelect) Open(ctx context.Context) error {
	t.acct.releaseAll()
	t.acct.budget = t.Budget
	if err := t.run(ctx); err != nil {
		t.out = nil
		t.acct.releaseAll()
		return err
	}
	t.pos = 0
	return nil
}

// run is the doubling loop: TA answers that are not join results are
// discarded, so the demand is re-asked with a doubled k until K rows survive
// or the inputs are exhausted.
func (t *TASelect) run(ctx context.Context) error {
	maxK := 0
	for _, in := range t.Inputs {
		if c := in.Rel.Cardinality(); c > maxK {
			maxK = c
		}
	}
	weights := make([]float64, len(t.Inputs))
	for i, in := range t.Inputs {
		weights[i] = in.Weight
	}
	var abort taAbort
	abort.cancel.reset(ctx)
	ask := t.K
	for {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		sources := make([]ranking.Source, len(t.Inputs))
		for i, in := range t.Inputs {
			sources[i] = newTASource(in, &abort)
		}
		results, stats, err := ranking.TA(sources, weights, ask)
		if abort.err != nil {
			return abort.err
		}
		if err != nil {
			return err
		}
		t.stats = stats
		t.out = t.out[:0]
		t.acct.releaseAll()
		for _, r := range results {
			row, ok := t.fetchRow(r.ID)
			if !ok {
				continue // object absent from some input: not a join result
			}
			if err := t.acct.charge(1); err != nil {
				return err
			}
			t.out = append(t.out, row)
			if len(t.out) == t.K {
				break
			}
		}
		if len(t.out) >= t.K || ask >= maxK || len(results) < ask {
			return nil
		}
		ask *= 2
		if ask > maxK {
			ask = maxK
		}
	}
}

// fetchRow assembles the joined tuple for an object id; ok=false when the
// object is missing from any input.
func (t *TASelect) fetchRow(id int64) (relation.Tuple, bool) {
	out := make(relation.Tuple, 0, t.schema.Len())
	for _, in := range t.Inputs {
		rids := in.IDIdx.Tree.Lookup(relation.Int(id))
		if len(rids) == 0 {
			return nil, false
		}
		out = append(out, in.Rel.Tuple(rids[0])...)
	}
	return out, true
}

// Next implements Operator.
func (t *TASelect) Next() (relation.Tuple, bool, error) {
	if t.pos >= len(t.out) {
		return nil, false, nil
	}
	row := t.out[t.pos]
	t.pos++
	return row, true, nil
}

// Close implements Operator.
func (t *TASelect) Close() error {
	t.out = nil
	t.acct.releaseAll()
	return nil
}

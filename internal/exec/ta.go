package exec

import (
	"context"
	"fmt"
	"math"

	"rankopt/internal/catalog"
	"rankopt/internal/relation"
)

// TAInput describes one ranked list of a TA: the relation, an index on its
// score column (sorted access walks its image backward), an index on its
// (unique) id column for random access, and the list's weight in the
// combining function.
type TAInput struct {
	Rel      *relation.Relation
	ScoreIdx *catalog.Index
	IDIdx    *catalog.Index
	// ScorePos and IDPos are the column positions within Rel's schema.
	ScorePos, IDPos int
	Weight          float64
}

// TA answers a top-k selection — m ranked lists over the same objects,
// joined on a unique id — with Fagin's Threshold Algorithm, as the fourth
// operator on the rank kernel. One step is one sorted access, round-robin
// over the lists: the weighted score is read from the score column's image
// (scoreImages) through rankedInput.admit (depth cap, NULL drop, NaN/±Inf
// boundary, descending contract), and an id seen for the first time is
// completed at once by a random access to every other list's id image. A complete object is a join result and is queued in
// the rankBuffer by its heap rows; one missing from some list is not, and is
// dropped. A queued result leaves once it beats the TA threshold Σ last_i —
// no unseen object can score more — and the queue drains once any list is
// exhausted, since every object of the join has been read from that list and
// completed by then. The operator is pipelined: the query's LIMIT above it
// stops the reads.
type TA struct {
	Inputs []TAInput
	// Budget, when set, is charged for every queued result and consulted for
	// the per-list depth limit.
	Budget *Budget

	schema *relation.Schema
	ins    []taList
	buf    rankBuffer[rowRefs]
	releaseRows
	// seen interns every id read by sorted access: an id it already holds
	// was completed at its first read.
	seen keyTable
	// next is the round-robin cursor, probes the random accesses made, and
	// exhausted whether some list ran out.
	next, probes int
	exhausted    bool

	cancel canceller
}

// taList is one TA input's read state: the shared reader's bookkeeping and
// score binding, the score index's positions not yet read (taken from the
// back), and the id image random access probes.
type taList struct {
	rankedInput
	rids []int32
	ids  *relation.SortedImage
}

// NewTA constructs the operator over 2 to maxJoinWidth lists, each with both
// indexes.
func NewTA(inputs []TAInput) (*TA, error) {
	if len(inputs) < 2 || len(inputs) > maxJoinWidth {
		return nil, fmt.Errorf("exec: TA needs 2 to %d inputs, got %d", maxJoinWidth, len(inputs))
	}
	sch := inputs[0].Rel.Schema()
	for i, in := range inputs {
		if in.ScoreIdx == nil || in.IDIdx == nil {
			return nil, fmt.Errorf("exec: TA input %d lacks indexes", i)
		}
		if i > 0 {
			sch = sch.Concat(in.Rel.Schema())
		}
	}
	return &TA{Inputs: inputs, schema: sch, ins: make([]taList, len(inputs)),
		buf: rankBuffer[rowRefs]{pool: &refsQueues}}, nil
}

// Schema implements Operator.
func (t *TA) Schema() *relation.Schema { return t.schema }

// Accesses returns the sorted accesses (the depths summed over the lists)
// and the random accesses made since Open.
func (t *TA) Accesses() (sorted, random int) {
	for i := range t.ins {
		sorted += t.ins[i].depth
	}
	return sorted, t.probes
}

// Open implements Operator. The lists are stored images, so Open only resets
// the read state and binds each list's score image; a done context or a
// score column holding a string or bool fails here, and Next polls the
// context.
func (t *TA) Open(ctx context.Context) error {
	if err := CtxErr(ctx); err != nil {
		return err
	}
	t.cancel.reset(ctx)
	budget := t.Budget.bound()
	t.buf.reset(budget)
	t.seen.reset(0, probeLoad)
	t.next, t.probes, t.exhausted = 0, 0, false
	for i := range t.ins {
		in := &t.Inputs[i]
		l := &t.ins[i]
		*l = taList{
			rankedInput: rankedInput{budget: budget, op: "TA", idx: i, ordered: true},
			rids:        in.ScoreIdx.Image().Rids,
			ids:         in.IDIdx.Image(),
		}
		l.setColumn(in.Weight, in.ScorePos)
		if !l.bindScore(in.Rel) {
			t.unbind()
			return fmt.Errorf("exec: TA input %d scores a column holding non-numeric values", i)
		}
	}
	return nil
}

// threshold bounds the combined score of every object not yet read by
// sorted access: Σ last_i, unbounded until every list has delivered a score.
func (t *TA) threshold() float64 {
	th := 0.0
	for i := range t.ins {
		if t.ins[i].seen == 0 {
			return math.Inf(1)
		}
		th += t.ins[i].last
	}
	return th
}

// access makes one sorted access on list i and completes the id it reads if
// that id is new.
func (t *TA) access(i int) error {
	l := &t.ins[i]
	n := len(l.rids)
	if n == 0 {
		t.exhausted = true
		return nil
	}
	rid := l.rids[n-1]
	l.rids = l.rids[:n-1]
	s, ok, err := l.admit(nil, rid)
	if err != nil || !ok {
		return err
	}
	in := &t.Inputs[i]
	id := in.Rel.Tuple(int(rid))[in.IDPos]
	if n := t.seen.groups; id.IsNull() || t.seen.intern(id) < n {
		return nil
	}
	var pick rowRefs
	var scores [maxJoinWidth]float64
	pick[i], scores[i] = rid, s
	for j := range t.ins {
		if j == i {
			continue
		}
		r, s, ok, err := t.probe(j, id)
		if err != nil || !ok {
			return err
		}
		pick[j], scores[j] = r, s
	}
	total := 0.0
	for j := range t.ins {
		total += scores[j]
	}
	return t.buf.offer(total, pick)
}

// probe is one random access: list j's row for id and its weighted score.
// ok=false means the object is missing from the list or has no score there,
// so it is not a join result. An id held by more than one row breaks the
// unique-id premise and fails.
func (t *TA) probe(j int, id relation.Value) (rid int32, s float64, ok bool, err error) {
	t.probes++
	rids := t.ins[j].ids.Lookup(id)
	switch {
	case len(rids) == 0:
		return 0, 0, false, nil
	case len(rids) > 1:
		return 0, 0, false, fmt.Errorf("exec: TA input %d holds %d rows for id %v; ids must be unique", j, len(rids), id)
	}
	s, null := t.ins[j].imageScore(rids[0])
	if null {
		return 0, 0, false, nil
	}
	s, err = finiteScore(s, "TA", j)
	return rids[0], s, err == nil, err
}

// Next implements Operator.
func (t *TA) Next() (relation.Tuple, bool, error) {
	for {
		if err := t.cancel.poll(); err != nil {
			return nil, false, err
		}
		if c, ok := t.buf.release(t.threshold(), t.exhausted); ok {
			return t.row(&c), true, nil
		}
		if t.exhausted {
			return nil, false, nil
		}
		i := t.next
		t.next = (i + 1) % len(t.ins)
		if err := t.access(i); err != nil {
			return nil, false, err
		}
	}
}

// row builds result c's output row: each list's heap row, in input order.
func (t *TA) row(c *rowRefs) relation.Tuple {
	out := t.newRow(t.schema.Len())
	for i := range t.Inputs {
		out = append(out, t.Inputs[i].Rel.Tuple(int(c[i]))...)
	}
	return out
}

// Close implements Operator.
func (t *TA) Close() error {
	t.buf.close()
	t.recycleRows()
	t.unbind()
	return nil
}

// unbind drops every list's score image.
func (t *TA) unbind() {
	for i := range t.ins {
		t.ins[i].unbindScore()
	}
}

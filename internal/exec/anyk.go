package exec

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// AnyK is a Lawler-style any-k ranked enumerator for acyclic multi-way
// equi-joins arranged as a path: input i joins input i+1 on
// LeftKeys[i] = RightKeys[i]. Where the m-way HRJN eagerly materializes every
// join combination a new tuple completes (a product of per-key bucket sizes),
// AnyK builds per-level sorted adjacency once and then pops results from a
// priority queue of partial solutions, expanding at most one successor per
// path position per pop — delay O(m·log) per result after an
// O(Σ n_i · log n_i) build, independent of the join's output size
// (Tziavelis et al., "Optimal Join Algorithms Meet Top-k").
//
// The build phase is bottom-up dynamic programming over the path: each tuple
// at level i learns its sorted successor bucket at level i+1 (tuples sharing
// its join key, ordered by best achievable completion) and its own `suffix`
// bound — its score plus the best completion of the remaining path. The
// enumeration phase then walks a max-heap of index vectors: popping the
// current best solution and pushing, for each position at or after the pop's
// deviation level, the solution that takes the next-best sibling there and
// the greedy best everywhere after. That partition visits every join result
// exactly once, in non-increasing score order, with deterministic FIFO
// tie-breaking.
//
// Inputs need not be sorted — the build consumes them in any order — so AnyK
// runs directly over cheap unordered scans where HRJN-family plans must pay
// for ranked access paths.
type AnyK struct {
	// Inputs are the m path-ordered relations.
	Inputs []Operator
	// Scores[i] evaluates input i's score contribution against its schema.
	Scores []expr.Expr
	// LeftKeys[i] (over Inputs[i]) and RightKeys[i] (over Inputs[i+1]) are
	// the m-1 adjacent equi-join key pairs along the path.
	LeftKeys, RightKeys []expr.Expr
	// Budget, when set, is charged for every tuple buffered during the build
	// and every pending solution on the queue, and consulted for the
	// per-input depth limit while draining inputs.
	Budget *Budget

	schema  *relation.Schema
	ins     []rankedInput // the shared reader, one per level (unordered)
	lkeyEvs []expr.Eval   // lkeyEvs[i] binds LeftKeys[i] to Inputs[i]
	rkeyEvs []expr.Eval   // rkeyEvs[i] binds RightKeys[i] to Inputs[i+1]

	built bool
	root  []anykEntry
	// buf queues the pending solutions; every input is read out before the
	// first one is pushed, so its release step always drains.
	buf rankBuffer[anykSol]
	// path and prefix are pop-time scratch (the solution walk), reused so
	// the hot path does not allocate them.
	path   []*anykEntry
	prefix []float64

	cancel canceller
}

// anykMaxWidth bounds the path width so a solution's index vector fits in a
// fixed array and pushes never allocate. Join queries are far narrower.
const anykMaxWidth = 8

// anykEntry is one input tuple annotated for ranked enumeration: its own
// score contribution, the best total achievable from it to the end of the
// path (suffix), and its sorted successor bucket at the next level.
type anykEntry struct {
	tuple  relation.Tuple
	score  float64
	suffix float64
	next   []anykEntry
	ord    int32
}

// anykSol is a pending (partial) solution: an index vector selecting one
// entry per level and the deviation level below which the vector is frozen
// for successor generation. Its total score is its key in the scoreQueue.
type anykSol struct {
	dev int8
	idx [anykMaxWidth]int32
}

// NewAnyK constructs the operator; inputs, scores, and adjacent key pairs
// must align, and the path width is capped at anykMaxWidth.
func NewAnyK(inputs []Operator, scores, leftKeys, rightKeys []expr.Expr) (*AnyK, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("exec: AnyK needs >=2 inputs, got %d", len(inputs))
	}
	if len(inputs) > anykMaxWidth {
		return nil, fmt.Errorf("exec: AnyK supports at most %d inputs, got %d", anykMaxWidth, len(inputs))
	}
	if len(scores) != len(inputs) || len(leftKeys) != len(inputs)-1 || len(rightKeys) != len(inputs)-1 {
		return nil, fmt.Errorf("exec: AnyK arity mismatch (%d inputs, %d scores, %d/%d keys)",
			len(inputs), len(scores), len(leftKeys), len(rightKeys))
	}
	return &AnyK{Inputs: inputs, Scores: scores, LeftKeys: leftKeys, RightKeys: rightKeys,
		schema: concatSchemas(inputs), ins: make([]rankedInput, len(inputs))}, nil
}

// Schema implements Operator.
func (j *AnyK) Schema() *relation.Schema { return j.schema }

// Depths returns the number of tuples consumed from each input.
func (j *AnyK) Depths() []int {
	d := make([]int, len(j.ins))
	for i := range j.ins {
		d[i] = j.ins[i].depth
	}
	return d
}

// Stats implements StatsReporter: the build drains every input fully, so the
// reported depths are the first and last input's cardinalities.
func (j *AnyK) Stats() RankJoinStats {
	return j.buf.stats(j.ins[0].depth, j.ins[len(j.ins)-1].depth)
}

// gauges exposes the queue high-water mark (and, on a binary path, the two
// input depths) to the Analyzed collector.
func (j *AnyK) gauges() analyzeGauges {
	g := analyzeGauges{maxQueue: j.buf.maxQueue}
	if len(j.ins) == 2 {
		g.leftDepth, g.rightDepth = j.ins[0].depth, j.ins[1].depth
	}
	return g
}

// Open implements Operator. The build itself is deferred to the first
// Next call so cancellation during the (blocking) build surfaces as a Next
// error like every other operator's pull loop.
func (j *AnyK) Open(ctx context.Context) error {
	j.cancel.reset(ctx)
	j.buf.reset(j.Budget, 0)
	m := len(j.Inputs)
	j.lkeyEvs = make([]expr.Eval, m-1)
	j.rkeyEvs = make([]expr.Eval, m-1)
	for i, in := range j.Inputs {
		if err := in.Open(ctx); err != nil {
			closeQuietly(j.Inputs[:i]...)
			return err
		}
		err := j.ins[i].bind("AnyK", i, in, j.Scores[i], false, j.Budget)
		if err == nil && i < m-1 {
			j.lkeyEvs[i], err = j.LeftKeys[i].Bind(in.Schema())
		}
		if err == nil && i > 0 {
			j.rkeyEvs[i-1], err = j.RightKeys[i-1].Bind(in.Schema())
		}
		if err != nil {
			closeQuietly(j.Inputs[:i+1]...)
			return err
		}
	}
	j.built = false
	j.root = nil
	j.path = make([]*anykEntry, m)
	j.prefix = make([]float64, m)
	return nil
}

// drainLevel consumes input i fully, returning its surviving entries.
// Tuples with a NULL score or a NULL required join key cannot contribute to
// any result and are dropped.
func (j *AnyK) drainLevel(i int) ([]anykEntry, error) {
	in := &j.ins[i]
	var out []anykEntry
	for !in.done {
		if err := j.cancel.poll(); err != nil {
			return nil, err
		}
		t, s, ok, err := in.read()
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		if err := j.buf.acct.charge(1); err != nil {
			return nil, err
		}
		out = append(out, anykEntry{tuple: t, score: s, ord: int32(len(out))})
	}
	return out, nil
}

// levelKey evaluates ev on the entry's tuple, returning the hash key and
// whether the key is usable (non-NULL).
func levelKey(ev expr.Eval, e *anykEntry) (any, bool, error) {
	kv, err := ev(e.tuple)
	if err != nil {
		return nil, false, err
	}
	if kv.IsNull() {
		return nil, false, nil
	}
	return kv.HashKey(), true, nil
}

// build runs the bottom-up phase: drain every input, then assign suffix
// bounds and sorted successor buckets backward along the path.
func (j *AnyK) build() error {
	m := len(j.Inputs)
	levels := make([][]anykEntry, m)
	for i := 0; i < m; i++ {
		lv, err := j.drainLevel(i)
		if err != nil {
			return err
		}
		levels[i] = lv
	}

	// byKey buckets the current (deeper) level's surviving entries by the
	// join key their predecessors probe with.
	sortBucket := func(b []anykEntry) {
		slices.SortFunc(b, func(x, y anykEntry) int {
			if x.suffix != y.suffix {
				return compareScoreDesc(x.suffix, y.suffix)
			}
			return cmp.Compare(x.ord, y.ord)
		})
	}
	var byKey map[any][]anykEntry
	for lvl := m - 1; lvl >= 0; lvl-- {
		var kept []anykEntry
		for idx := range levels[lvl] {
			if err := j.cancel.poll(); err != nil {
				return err
			}
			e := levels[lvl][idx]
			if lvl == m-1 {
				e.suffix = e.score
			} else {
				hk, ok, err := levelKey(j.lkeyEvs[lvl], &e)
				if err != nil {
					return err
				}
				if !ok {
					j.buf.acct.release(1)
					continue
				}
				nxt := byKey[hk]
				if len(nxt) == 0 {
					// No completion below: the entry is dead weight.
					j.buf.acct.release(1)
					continue
				}
				e.next = nxt
				e.suffix = e.score + nxt[0].suffix
			}
			kept = append(kept, e)
		}
		if lvl == 0 {
			sortBucket(kept)
			for i := range kept {
				kept[i].ord = int32(i)
			}
			j.root = kept
			break
		}
		next := make(map[any][]anykEntry, len(kept))
		for _, e := range kept {
			hk, ok, err := levelKey(j.rkeyEvs[lvl-1], &e)
			if err != nil {
				return err
			}
			if !ok {
				j.buf.acct.release(1)
				continue
			}
			next[hk] = append(next[hk], e)
		}
		for hk, b := range next {
			sortBucket(b)
			for i := range b {
				b[i].ord = int32(i)
			}
			next[hk] = b
		}
		byKey = next
	}

	if len(j.root) > 0 {
		if err := j.buf.offer(j.root[0].suffix, anykSol{}); err != nil {
			return err
		}
	}
	j.built = true
	return nil
}

// walk materializes the popped solution's per-level entries and running
// prefix scores into the reusable scratch.
func (j *AnyK) walk(s *anykSol) {
	bucket := j.root
	for lvl := 0; lvl < len(j.Inputs); lvl++ {
		e := &bucket[s.idx[lvl]]
		j.path[lvl] = e
		if lvl == 0 {
			j.prefix[0] = e.score
		} else {
			j.prefix[lvl] = j.prefix[lvl-1] + e.score
		}
		bucket = e.next
	}
}

// Next implements Operator: pop the best pending solution, emit it, and push
// its successors (one per path position at or after the deviation level).
func (j *AnyK) Next() (relation.Tuple, bool, error) {
	if err := j.cancel.poll(); err != nil {
		return nil, false, err
	}
	if !j.built {
		if err := j.build(); err != nil {
			return nil, false, err
		}
	}
	sol, ok := j.buf.release(math.Inf(-1), true)
	if !ok {
		return nil, false, nil
	}
	m := len(j.Inputs)
	j.walk(&sol)

	for lvl := int(sol.dev); lvl < m; lvl++ {
		bucket := j.root
		if lvl > 0 {
			bucket = j.path[lvl-1].next
		}
		ni := sol.idx[lvl] + 1
		if int(ni) >= len(bucket) {
			continue
		}
		succ := anykSol{dev: int8(lvl)}
		copy(succ.idx[:lvl], sol.idx[:lvl])
		succ.idx[lvl] = ni
		score := bucket[ni].suffix
		if lvl > 0 {
			score += j.prefix[lvl-1]
		}
		if err := j.buf.offer(score, succ); err != nil {
			return nil, false, err
		}
	}

	out := make(relation.Tuple, 0, j.schema.Len())
	for lvl := 0; lvl < m; lvl++ {
		out = append(out, j.path[lvl].tuple...)
	}
	return out, true, nil
}

// Close implements Operator.
func (j *AnyK) Close() error {
	j.root = nil
	j.path = nil
	j.built = false
	j.buf.close()
	return closeAll(j.Inputs)
}

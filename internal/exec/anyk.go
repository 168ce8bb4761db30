package exec

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// AnyK is a Lawler-style any-k ranked enumerator for acyclic multi-way
// equi-joins arranged as a path: input i joins input i+1 on
// LeftKeys[i] = RightKeys[i]. Where MultiHRJN eagerly materializes every join
// combination a new tuple completes (a product of per-key bucket sizes), AnyK
// builds per-level sorted adjacency once and then pops results from a
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

	schema   *relation.Schema
	scoreEvs []expr.Eval
	lkeyEvs  []expr.Eval // lkeyEvs[i] binds LeftKeys[i] to Inputs[i]
	rkeyEvs  []expr.Eval // rkeyEvs[i] binds RightKeys[i] to Inputs[i+1]

	built bool
	root  []anykEntry
	pq    anykQueue
	seq   int
	// path and prefix are pop-time scratch (the solution walk), reused so
	// the hot path does not allocate them.
	path   []*anykEntry
	prefix []float64

	cancel canceller
	acct   accountant

	depths   []int
	maxQueue int
	emitted  int
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
// entry per level, its total score, and the deviation level below which the
// vector is frozen for successor generation.
type anykSol struct {
	score float64
	seq   int
	dev   int8
	idx   [anykMaxWidth]int32
}

// anykQueue is a max-heap of pending solutions ordered by score with FIFO
// tie-breaking, mirroring rankQueue but holding inline index vectors.
type anykQueue []anykSol

func (q anykQueue) prior(i, j int) bool {
	if q[i].score != q[j].score {
		return q[i].score > q[j].score
	}
	return q[i].seq < q[j].seq
}

func (q *anykQueue) push(s anykSol) {
	*q = append(*q, s)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.prior(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *anykQueue) pop() anykSol {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = anykSol{}
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.prior(l, best) {
			best = l
		}
		if r < n && h.prior(r, best) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
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
	sch := inputs[0].Schema()
	for _, in := range inputs[1:] {
		sch = sch.Concat(in.Schema())
	}
	return &AnyK{Inputs: inputs, Scores: scores, LeftKeys: leftKeys, RightKeys: rightKeys, schema: sch}, nil
}

// Schema implements Operator.
func (j *AnyK) Schema() *relation.Schema { return j.schema }

// Depths returns the number of tuples consumed from each input.
func (j *AnyK) Depths() []int { return append([]int(nil), j.depths...) }

// MaxQueue returns the solution-queue high-water mark.
func (j *AnyK) MaxQueue() int { return j.maxQueue }

// Stats implements StatsReporter: the build drains every input fully, so the
// reported depths are the input cardinalities after NULL drops.
func (j *AnyK) Stats() RankJoinStats {
	st := RankJoinStats{MaxQueue: j.maxQueue, Emitted: j.emitted}
	if len(j.depths) > 0 {
		st.LeftDepth = j.depths[0]
		st.RightDepth = j.depths[len(j.depths)-1]
	}
	return st
}

// gauges exposes the queue high-water mark (and, on a binary path, the two
// input depths) to the Analyzed collector.
func (j *AnyK) gauges() analyzeGauges {
	g := analyzeGauges{maxQueue: j.maxQueue}
	if len(j.depths) == 2 {
		g.leftDepth, g.rightDepth = j.depths[0], j.depths[1]
	}
	return g
}

// Open implements Operator. The build itself is deferred to the first
// Next call so cancellation during the (blocking) build surfaces as a Next
// error like every other operator's pull loop.
func (j *AnyK) Open(ctx context.Context) error {
	j.cancel.reset(ctx)
	j.acct.releaseAll()
	j.acct.budget = j.Budget
	m := len(j.Inputs)
	j.scoreEvs = make([]expr.Eval, m)
	j.lkeyEvs = make([]expr.Eval, m-1)
	j.rkeyEvs = make([]expr.Eval, m-1)
	for i, in := range j.Inputs {
		if err := in.Open(ctx); err != nil {
			closeQuietly(j.Inputs[:i]...)
			return err
		}
		var err error
		if j.scoreEvs[i], err = j.Scores[i].Bind(in.Schema()); err != nil {
			closeQuietly(j.Inputs[:i+1]...)
			return err
		}
		if i < m-1 {
			if j.lkeyEvs[i], err = j.LeftKeys[i].Bind(in.Schema()); err != nil {
				closeQuietly(j.Inputs[:i+1]...)
				return err
			}
		}
		if i > 0 {
			if j.rkeyEvs[i-1], err = j.RightKeys[i-1].Bind(in.Schema()); err != nil {
				closeQuietly(j.Inputs[:i+1]...)
				return err
			}
		}
	}
	j.built = false
	j.root = nil
	j.pq = j.pq[:0]
	j.seq = 0
	j.path = make([]*anykEntry, m)
	j.prefix = make([]float64, m)
	j.depths = make([]int, m)
	j.maxQueue = 0
	j.emitted = 0
	return nil
}

// drainLevel consumes input i fully, returning its surviving entries.
// Tuples with a NULL score or a NULL required join key cannot contribute to
// any result and are dropped.
func (j *AnyK) drainLevel(i int) ([]anykEntry, error) {
	var out []anykEntry
	for {
		if err := j.cancel.poll(); err != nil {
			return nil, err
		}
		t, ok, err := j.Inputs[i].Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		j.depths[i]++
		if err := j.Budget.depthOK(j.depths[i]); err != nil {
			return nil, err
		}
		sv, err := j.scoreEvs[i](t)
		if err != nil {
			return nil, err
		}
		if sv.IsNull() {
			continue
		}
		s, err := finiteScore(sv.AsFloat(), "AnyK", "path")
		if err != nil {
			return nil, err
		}
		if err := j.acct.charge(1); err != nil {
			return nil, err
		}
		out = append(out, anykEntry{tuple: t, score: s, ord: int32(len(out))})
	}
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
					j.acct.release(1)
					continue
				}
				nxt := byKey[hk]
				if len(nxt) == 0 {
					// No completion below: the entry is dead weight.
					j.acct.release(1)
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
				j.acct.release(1)
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
		if err := j.acct.charge(1); err != nil {
			return err
		}
		j.pq.push(anykSol{score: j.root[0].suffix, seq: j.seq})
		j.seq++
		j.maxQueue = 1
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
	if len(j.pq) == 0 {
		return nil, false, nil
	}
	m := len(j.Inputs)
	sol := j.pq.pop()
	j.acct.release(1)
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
		succ := anykSol{seq: j.seq, dev: int8(lvl)}
		copy(succ.idx[:lvl], sol.idx[:lvl])
		succ.idx[lvl] = ni
		succ.score = bucket[ni].suffix
		if lvl > 0 {
			succ.score += j.prefix[lvl-1]
		}
		j.seq++
		if err := j.acct.charge(1); err != nil {
			return nil, false, err
		}
		j.pq.push(succ)
	}
	if len(j.pq) > j.maxQueue {
		j.maxQueue = len(j.pq)
	}

	out := make(relation.Tuple, 0, j.schema.Len())
	for lvl := 0; lvl < m; lvl++ {
		out = append(out, j.path[lvl].tuple...)
	}
	j.emitted++
	return out, true, nil
}

// Close implements Operator.
func (j *AnyK) Close() error {
	var first error
	for _, in := range j.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	j.root = nil
	j.pq = nil
	j.path = nil
	j.built = false
	j.acct.releaseAll()
	return first
}

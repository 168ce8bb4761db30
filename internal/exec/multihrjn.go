package exec

import (
	"context"
	"fmt"
	"math"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// MultiHRJN is the m-way hash rank-join: one operator joins m ranked inputs
// on a shared equi-join key and releases results in descending combined
// score order. Compared to a tree of binary HRJNs it maintains one global
// threshold
//
//	T = max_i ( last_i + Σ_{j≠i} top_j )
//
// so no intermediate partial rankings are buffered — the trade the rank-join
// literature studies against binary composition. All inputs must arrive in
// descending order of their score expressions.
type MultiHRJN struct {
	Inputs []Operator
	// Scores[i] evaluates input i's contribution against its own schema.
	Scores []expr.Expr
	// Keys[i] evaluates input i's join key; results combine tuples sharing
	// one key value across all inputs.
	Keys []expr.Expr
	// Budget, when set, is charged for every tuple buffered in the m hash
	// tables and the global ranking queue, and consulted for the per-input
	// depth limit.
	Budget *Budget

	schema   *relation.Schema
	scoreEvs []expr.Eval
	keyEvs   []expr.Eval
	tables   []map[any][]scored
	tops     []float64
	lasts    []float64
	seen     []int
	done     []bool
	next     int
	pq       rankQueue
	seq      int
	// parts is the combination scratch buffer, reused across pulls so the
	// per-tuple path does not allocate it.
	parts []scored

	cancel canceller
	acct   accountant

	depths   []int
	maxQueue int
	emitted  int
}

// NewMultiHRJN constructs the operator; inputs, scores, and keys must align.
func NewMultiHRJN(inputs []Operator, scores, keys []expr.Expr) (*MultiHRJN, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("exec: MultiHRJN needs >=2 inputs, got %d", len(inputs))
	}
	if len(scores) != len(inputs) || len(keys) != len(inputs) {
		return nil, fmt.Errorf("exec: MultiHRJN arity mismatch (%d inputs, %d scores, %d keys)",
			len(inputs), len(scores), len(keys))
	}
	sch := inputs[0].Schema()
	for _, in := range inputs[1:] {
		sch = sch.Concat(in.Schema())
	}
	return &MultiHRJN{Inputs: inputs, Scores: scores, Keys: keys, schema: sch}, nil
}

// Schema implements Operator.
func (j *MultiHRJN) Schema() *relation.Schema { return j.schema }

// Depths returns the number of tuples consumed from each input.
func (j *MultiHRJN) Depths() []int { return append([]int(nil), j.depths...) }

// MaxQueue returns the ranking-queue high-water mark.
func (j *MultiHRJN) MaxQueue() int { return j.maxQueue }

// gauges exposes the queue high-water mark (and, in the binary case, the two
// input depths) to the Analyzed collector.
func (j *MultiHRJN) gauges() analyzeGauges {
	g := analyzeGauges{maxQueue: j.maxQueue}
	if len(j.depths) == 2 {
		g.leftDepth, g.rightDepth = j.depths[0], j.depths[1]
	}
	return g
}

// Open implements Operator, forwarding the context to every input and
// polling it in Next's pull loop.
func (j *MultiHRJN) Open(ctx context.Context) error {
	j.cancel.reset(ctx)
	j.acct.releaseAll()
	j.acct.budget = j.Budget
	m := len(j.Inputs)
	j.scoreEvs = make([]expr.Eval, m)
	j.keyEvs = make([]expr.Eval, m)
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
		if j.keyEvs[i], err = j.Keys[i].Bind(in.Schema()); err != nil {
			closeQuietly(j.Inputs[:i+1]...)
			return err
		}
	}
	j.tables = make([]map[any][]scored, m)
	for i := range j.tables {
		j.tables[i] = map[any][]scored{}
	}
	j.tops = make([]float64, m)
	j.lasts = make([]float64, m)
	j.seen = make([]int, m)
	j.done = make([]bool, m)
	j.depths = make([]int, m)
	j.next = 0
	j.pq = j.pq[:0]
	j.parts = make([]scored, m)
	j.seq = 0
	j.maxQueue = 0
	j.emitted = 0
	return nil
}

// threshold bounds the score of every unseen join combination.
func (j *MultiHRJN) threshold() float64 {
	sumTops := 0.0
	for i := range j.Inputs {
		if j.seen[i] == 0 {
			if j.done[i] {
				// An empty input: no results at all.
				return math.Inf(-1)
			}
			return math.Inf(1)
		}
		sumTops += j.tops[i]
	}
	t := math.Inf(-1)
	for i := range j.Inputs {
		if j.done[i] {
			continue
		}
		if v := sumTops - j.tops[i] + j.lasts[i]; v > t {
			t = v
		}
	}
	return t
}

// allDone reports whether every input is exhausted.
func (j *MultiHRJN) allDone() bool {
	for _, d := range j.done {
		if !d {
			return false
		}
	}
	return true
}

// chooseInput rotates round-robin over live inputs.
func (j *MultiHRJN) chooseInput() int {
	m := len(j.Inputs)
	for t := 0; t < m; t++ {
		i := (j.next + t) % m
		if !j.done[i] {
			j.next = (i + 1) % m
			return i
		}
	}
	return -1
}

// pull consumes one tuple from input i, joining it against the other seen
// sides.
func (j *MultiHRJN) pull(i int) error {
	t, ok, err := j.Inputs[i].Next()
	if err != nil {
		return err
	}
	if !ok {
		j.done[i] = true
		return nil
	}
	// Consumed tuples count toward the depth before the NULL-score drop.
	j.depths[i]++
	if err := j.Budget.depthOK(j.depths[i]); err != nil {
		return err
	}
	sv, err := j.scoreEvs[i](t)
	if err != nil {
		return err
	}
	if sv.IsNull() {
		return nil
	}
	s, err := finiteScore(sv.AsFloat(), "MultiHRJN", "ranked")
	if err != nil {
		return err
	}
	if j.seen[i] == 0 {
		j.tops[i] = s
	} else if s > j.lasts[i]+scoreEps {
		return fmt.Errorf("exec: MultiHRJN input %d violated descending-score contract (%v after %v)", i, s, j.lasts[i])
	}
	j.lasts[i] = s
	j.seen[i]++
	kv, err := j.keyEvs[i](t)
	if err != nil {
		return err
	}
	if kv.IsNull() {
		return nil
	}
	hk := kv.HashKey()
	if err := j.acct.charge(1); err != nil {
		return err
	}
	j.tables[i][hk] = append(j.tables[i][hk], scored{t, s})
	// Enumerate combinations: the new tuple at position i, matching tuples
	// from every other input.
	j.parts[i] = scored{t, s}
	return j.combine(hk, 0, i, j.parts)
}

// combine recursively fills every slot except `fixed` with matches under hk.
func (j *MultiHRJN) combine(hk any, slot, fixed int, parts []scored) error {
	if slot == len(j.Inputs) {
		total := 0.0
		out := make(relation.Tuple, 0, j.schema.Len())
		for _, p := range parts {
			total += p.s
			out = append(out, p.t...)
		}
		if err := j.acct.charge(1); err != nil {
			return err
		}
		j.pq.push(rankItem{score: total, seq: j.seq, tuple: out})
		j.seq++
		if len(j.pq) > j.maxQueue {
			j.maxQueue = len(j.pq)
		}
		return nil
	}
	if slot == fixed {
		return j.combine(hk, slot+1, fixed, parts)
	}
	for _, m := range j.tables[slot][hk] {
		parts[slot] = m
		if err := j.combine(hk, slot+1, fixed, parts); err != nil {
			return err
		}
	}
	return nil
}

// Next implements Operator.
func (j *MultiHRJN) Next() (relation.Tuple, bool, error) {
	for {
		if err := j.cancel.poll(); err != nil {
			return nil, false, err
		}
		if len(j.pq) > 0 && j.pq[0].score >= j.threshold()-scoreEps {
			it := j.pq.pop()
			j.acct.release(1)
			j.emitted++
			return it.tuple, true, nil
		}
		if j.allDone() {
			if len(j.pq) > 0 {
				it := j.pq.pop()
				j.acct.release(1)
				j.emitted++
				return it.tuple, true, nil
			}
			return nil, false, nil
		}
		i := j.chooseInput()
		if i < 0 {
			continue
		}
		if err := j.pull(i); err != nil {
			return nil, false, err
		}
	}
}

// Close implements Operator.
func (j *MultiHRJN) Close() error {
	var first error
	for _, in := range j.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	j.tables = nil
	j.pq = nil
	j.parts = nil
	j.acct.releaseAll()
	return first
}

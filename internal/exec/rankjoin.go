package exec

import (
	"context"
	"fmt"
	"math"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// scoreEps absorbs floating-point noise when comparing combined scores
// against the threshold.
const scoreEps = 1e-9

// finiteScore rejects NaN scores and clamps infinite ones to the finite
// float range at the rank-join input boundary. The threshold arithmetic adds
// terms from opposite inputs (e.g. topL+lastR): with topL=+Inf and
// lastR=-Inf the bound becomes NaN, every `pq[0].score >= threshold-eps`
// comparison turns false, and early termination is silently disabled — the
// join degrades to a full drain. Clamping ±Inf to ±MaxFloat64 preserves the
// score ordering (no finite score exceeds it) while keeping every
// threshold sum finite; a NaN score has no position in a ranking at all, so
// it fails loudly like a sort-contract violation.
func finiteScore(s float64, op, input string) (float64, error) {
	if math.IsNaN(s) {
		return 0, fmt.Errorf("exec: %s %s input produced NaN score", op, input)
	}
	if math.IsInf(s, 1) {
		return math.MaxFloat64, nil
	}
	if math.IsInf(s, -1) {
		return -math.MaxFloat64, nil
	}
	return s, nil
}

// PullStrategy selects which input an HRJN polls next.
type PullStrategy uint8

const (
	// Alternate strictly alternates between the two inputs.
	Alternate PullStrategy = iota
	// Adaptive pulls from the input under the dominating threshold term
	// (threshold = max(topL+lastR, lastL+topR)): only that pull can lower
	// the bound, which pays off when score distributions differ.
	Adaptive
)

// RankJoinStats captures the measured quantities the paper's Section 5
// experiments report: the depth reached into each input, the high-water mark
// of the output priority queue (the operator's ranking buffer), and the
// number of results emitted.
type RankJoinStats struct {
	LeftDepth  int
	RightDepth int
	MaxQueue   int
	Emitted    int
}

// StatsReporter is implemented by operators that measure their input depths
// and ranking-buffer usage (HRJN and NRJN); the experiment harness and the
// CLI use it to compare measurements with the optimizer's estimates.
type StatsReporter interface {
	Stats() RankJoinStats
}

// rankItem is a scored join result awaiting release from the priority queue.
type rankItem struct {
	score float64
	seq   int
	tuple relation.Tuple
}

// rankQueue is a max-heap on score with FIFO tie-breaking for determinism.
// It is hand-rolled rather than layered over container/heap: the standard
// heap's any-typed Push/Pop interface boxes every rankItem, costing two
// heap allocations per buffered result on the rank joins' per-tuple path.
// (score, seq) is a strict total order — seq is unique — so the pop order
// is identical to container/heap's regardless of internal arrangement.
type rankQueue []rankItem

// prior reports whether element i beats element j (higher score, FIFO ties).
func (q rankQueue) prior(i, j int) bool {
	if q[i].score != q[j].score {
		return q[i].score > q[j].score
	}
	return q[i].seq < q[j].seq
}

// push inserts an item, sifting it up to its heap position.
func (q *rankQueue) push(it rankItem) {
	s := append(*q, it)
	*q = s
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.prior(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the top item. The vacated slot is zeroed before
// the slice shrinks so the popped tuple becomes GC-reclaimable as soon as
// the caller drops it — leaving it in the slice's spare capacity would pin
// every emitted tuple until the operator closes.
func (q *rankQueue) pop() rankItem {
	s := *q
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	it := s[n]
	s[n] = rankItem{}
	s = s[:n]
	*q = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && s.prior(r, l) {
			best = r
		}
		if !s.prior(best, i) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return it
}

// grow ensures capacity for the optimizer's buffered-results hint without
// changing length.
func (q *rankQueue) grow(hint int) {
	if hint > 0 && cap(*q) < hint {
		*q = make(rankQueue, 0, hint)
	} else {
		*q = (*q)[:0]
	}
}

// HRJN is the hash rank-join operator: a symmetric hash join whose output is
// released in descending combined-score order using the rank-aggregation
// threshold. Both inputs must arrive in descending order of their score
// expressions; the operator verifies this contract and fails loudly when it
// is violated. The combined score is LeftScore + RightScore (the monotone
// linear combining function of the paper — weights live inside the
// expressions).
type HRJN struct {
	Left, Right Operator
	// LeftScore and RightScore evaluate each input's score contribution.
	LeftScore, RightScore expr.Expr
	// LeftKey and RightKey are the equi-join key expressions.
	LeftKey, RightKey expr.Expr
	// Residual is an optional extra join predicate.
	Residual expr.Expr
	// Strategy selects the polling policy (default Alternate).
	Strategy PullStrategy
	// SizeHintL/SizeHintR/QueueHint are the optimizer's expected input
	// depths and buffered-result count (plan.Node.EstDL/EstDR and their
	// product times the join selectivity). They pre-size the hash tables
	// and the ranking queue so the steady-state pull loop does not rehash
	// or regrow. Zero means no hint.
	SizeHintL, SizeHintR, QueueHint int
	// Budget, when set, is charged for every tuple buffered in the hash
	// tables and the ranking queue, and consulted for the per-input depth
	// limit. Nil means unlimited.
	Budget *Budget

	schema                     *relation.Schema
	lScore, rScore, lKey, rKey expr.Eval
	resEv                      expr.Eval

	lTable, rTable map[any][]scored
	pq             rankQueue
	seq            int
	outPool        tuplePool

	topL, lastL  float64
	topR, lastR  float64
	lSeen, rSeen int
	lDone, rDone bool
	pullLeft     bool

	cancel canceller
	acct   accountant

	stats RankJoinStats
}

// scored pairs a tuple with its input score so probes avoid re-evaluation.
type scored struct {
	t relation.Tuple
	s float64
}

// NewHRJN constructs the operator.
func NewHRJN(left, right Operator, leftScore, rightScore, leftKey, rightKey, residual expr.Expr) *HRJN {
	return &HRJN{
		Left: left, Right: right,
		LeftScore: leftScore, RightScore: rightScore,
		LeftKey: leftKey, RightKey: rightKey, Residual: residual,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *HRJN) Schema() *relation.Schema { return j.schema }

// Stats returns the measured depths and buffer high-water mark.
func (j *HRJN) Stats() RankJoinStats { return j.stats }

// gauges exposes the internal high-water marks to the Analyzed collector.
func (j *HRJN) gauges() analyzeGauges {
	return analyzeGauges{
		leftDepth: j.stats.LeftDepth, rightDepth: j.stats.RightDepth,
		maxQueue: j.stats.MaxQueue,
		poolHit:  j.outPool.hit, poolMiss: j.outPool.miss,
	}
}

// Open implements Operator: the context is forwarded to both inputs
// and polled by Next's pull loop on the sampling cadence.
func (j *HRJN) Open(ctx context.Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		closeQuietly(j.Left)
		return err
	}
	if err := j.bind(); err != nil {
		closeQuietly(j.Left, j.Right)
		return err
	}
	j.cancel.reset(ctx)
	j.acct.releaseAll()
	j.acct.budget = j.Budget
	j.lTable = make(map[any][]scored, sizeHint(float64(j.SizeHintL)))
	j.rTable = make(map[any][]scored, sizeHint(float64(j.SizeHintR)))
	j.pq.grow(sizeHint(float64(j.QueueHint)))
	j.outPool.reset(j.schema.Len())
	j.seq = 0
	j.lSeen, j.rSeen = 0, 0
	j.lDone, j.rDone = false, false
	j.pullLeft = true
	j.stats = RankJoinStats{}
	return nil
}

// bind resolves the score, key, and residual evaluators.
func (j *HRJN) bind() error {
	var err error
	if j.lScore, err = j.LeftScore.Bind(j.Left.Schema()); err != nil {
		return err
	}
	if j.rScore, err = j.RightScore.Bind(j.Right.Schema()); err != nil {
		return err
	}
	if j.lKey, err = j.LeftKey.Bind(j.Left.Schema()); err != nil {
		return err
	}
	if j.rKey, err = j.RightKey.Bind(j.Right.Schema()); err != nil {
		return err
	}
	j.resEv, err = bindPred(j.Residual, j.schema)
	return err
}

// threshold upper-bounds the combined score of every join result not yet in
// the priority queue.
func (j *HRJN) threshold() float64 {
	switch {
	case j.lSeen == 0 || j.rSeen == 0:
		// Cannot bound anything before seeing one tuple per input.
		return math.Inf(1)
	case j.lDone && j.rDone:
		return math.Inf(-1)
	case j.lDone:
		// Only (seen L, new R) combinations remain unseen.
		return j.topL + j.lastR
	case j.rDone:
		return j.lastL + j.topR
	default:
		t1 := j.topL + j.lastR
		t2 := j.lastL + j.topR
		return math.Max(t1, t2)
	}
}

// pull consumes one tuple from the chosen side, updating state and queueing
// any new join results.
func (j *HRJN) pull(left bool) error {
	var in Operator
	if left {
		in = j.Left
	} else {
		in = j.Right
	}
	t, ok, err := in.Next()
	if err != nil {
		return err
	}
	if !ok {
		if left {
			j.lDone = true
		} else {
			j.rDone = true
		}
		return nil
	}
	// Depth is the number of tuples read from the input, so the tuple counts
	// as consumed before any NULL-score drop — matching what a Counter
	// wrapped around the input would measure.
	if left {
		j.stats.LeftDepth++
		if err := j.Budget.depthOK(j.stats.LeftDepth); err != nil {
			return err
		}
	} else {
		j.stats.RightDepth++
		if err := j.Budget.depthOK(j.stats.RightDepth); err != nil {
			return err
		}
	}
	var s relation.Value
	if left {
		s, err = j.lScore(t)
	} else {
		s, err = j.rScore(t)
	}
	if err != nil {
		return err
	}
	if s.IsNull() {
		// NULL scores cannot participate in ranking; drop the tuple.
		return nil
	}
	side := "right"
	if left {
		side = "left"
	}
	sc, err := finiteScore(s.AsFloat(), "HRJN", side)
	if err != nil {
		return err
	}
	var k relation.Value
	if left {
		k, err = j.lKey(t)
	} else {
		k, err = j.rKey(t)
	}
	if err != nil {
		return err
	}
	if left {
		if j.lSeen == 0 {
			j.topL = sc
		} else if sc > j.lastL+scoreEps {
			return fmt.Errorf("exec: HRJN left input violated descending-score contract (%v after %v)", sc, j.lastL)
		}
		j.lastL = sc
		j.lSeen++
	} else {
		if j.rSeen == 0 {
			j.topR = sc
		} else if sc > j.lastR+scoreEps {
			return fmt.Errorf("exec: HRJN right input violated descending-score contract (%v after %v)", sc, j.lastR)
		}
		j.lastR = sc
		j.rSeen++
	}
	if k.IsNull() {
		return nil
	}
	hk := k.HashKey()
	// The inserted tuple is buffered in its hash table until Close.
	if err := j.acct.charge(1); err != nil {
		return err
	}
	if left {
		j.lTable[hk] = append(j.lTable[hk], scored{t, sc})
		for _, m := range j.rTable[hk] {
			if err := j.emit(t, m.t, sc+m.s); err != nil {
				return err
			}
		}
	} else {
		j.rTable[hk] = append(j.rTable[hk], scored{t, sc})
		for _, m := range j.lTable[hk] {
			if err := j.emit(m.t, t, m.s+sc); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit pushes a candidate join result through the residual predicate into
// the priority queue. The concatenated tuple comes from the operator's free
// list; a candidate the residual rejects returns there immediately, so
// selective residuals cost no allocation per rejected match.
func (j *HRJN) emit(l, r relation.Tuple, score float64) error {
	out := j.outPool.concat(l, r)
	pass, err := expr.EvalBool(j.resEv, out)
	if err != nil {
		return err
	}
	if !pass {
		j.outPool.put(out)
		return nil
	}
	if err := j.acct.charge(1); err != nil {
		return err
	}
	j.pq.push(rankItem{score: score, seq: j.seq, tuple: out})
	j.seq++
	if len(j.pq) > j.stats.MaxQueue {
		j.stats.MaxQueue = len(j.pq)
	}
	return nil
}

// chooseSide picks the next input to poll.
func (j *HRJN) chooseSide() bool {
	if j.lDone {
		return false
	}
	if j.rDone {
		return true
	}
	// Both inputs must deliver one tuple before any bound exists.
	if j.lSeen == 0 {
		return true
	}
	if j.rSeen == 0 {
		return false
	}
	if j.Strategy == Adaptive {
		// The threshold is max(topL+lastR, lastL+topR); only pulling the
		// input under the dominating term lowers it. Pull left when the
		// lastL+topR term dominates, right otherwise.
		return j.lastL+j.topR >= j.topL+j.lastR
	}
	side := j.pullLeft
	j.pullLeft = !j.pullLeft
	return side
}

// Next implements Operator. The inner pull loop — unbounded when the
// threshold never drops — polls the query context on the sampling cadence,
// so a cancelled or past-deadline query escapes even mid-pull-storm.
func (j *HRJN) Next() (relation.Tuple, bool, error) {
	for {
		if err := j.cancel.poll(); err != nil {
			return nil, false, err
		}
		if len(j.pq) > 0 && j.pq[0].score >= j.threshold()-scoreEps {
			it := j.pq.pop()
			j.acct.release(1)
			j.stats.Emitted++
			return it.tuple, true, nil
		}
		if j.lDone && j.rDone {
			if len(j.pq) > 0 {
				it := j.pq.pop()
				j.acct.release(1)
				j.stats.Emitted++
				return it.tuple, true, nil
			}
			return nil, false, nil
		}
		if err := j.pull(j.chooseSide()); err != nil {
			return nil, false, err
		}
	}
}

// Close implements Operator.
func (j *HRJN) Close() error {
	j.lTable, j.rTable = nil, nil
	j.pq = nil
	j.acct.releaseAll()
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// NRJN is the nested-loops rank-join operator. The outer (left) input must
// arrive in descending score order; the inner input is materialized at Open
// (it need not be sorted — this is the paper's "at least one sorted input"
// join choice). For each outer tuple all inner matches are found by a linear
// scan; the only ranking state is the priority queue. The threshold after
// consuming an outer tuple with score s is s + max(inner score), since every
// unseen combination involves a deeper outer tuple.
type NRJN struct {
	Left, Right Operator
	// LeftScore and RightScore evaluate each input's score contribution.
	LeftScore, RightScore expr.Expr
	// Pred is the full join predicate over the concatenated tuple (NRJN
	// performs no hashing, so any predicate works, not just equi-joins).
	Pred expr.Expr
	// QueueHint pre-sizes the ranking queue from the optimizer's estimated
	// buffered-result count (zero = no hint).
	QueueHint int
	// Budget, when set, is charged for the materialized inner and every
	// queued result, and consulted for the outer depth limit.
	Budget *Budget

	schema *relation.Schema
	lScore expr.Eval
	predEv expr.Eval

	inner    []scored
	innerMax float64
	pq       rankQueue
	seq      int
	outPool  tuplePool
	lastL    float64
	lSeen    int
	lDone    bool

	cancel canceller
	acct   accountant

	stats RankJoinStats
}

// NewNRJN constructs the operator.
func NewNRJN(left, right Operator, leftScore, rightScore, pred expr.Expr) *NRJN {
	return &NRJN{
		Left: left, Right: right,
		LeftScore: leftScore, RightScore: rightScore, Pred: pred,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *NRJN) Schema() *relation.Schema { return j.schema }

// Stats returns the measured depths and buffer high-water mark. RightDepth
// equals the materialized inner size (the nested-loops strategy consumes the
// inner fully).
func (j *NRJN) Stats() RankJoinStats { return j.stats }

// gauges exposes the internal high-water marks to the Analyzed collector.
func (j *NRJN) gauges() analyzeGauges {
	return analyzeGauges{
		leftDepth: j.stats.LeftDepth, rightDepth: j.stats.RightDepth,
		maxQueue: j.stats.MaxQueue,
		poolHit:  j.outPool.hit, poolMiss: j.outPool.miss,
	}
}

// Open implements Operator: inner materialization (the blocking part
// of Open) runs under the context, and Next's outer loop polls it.
func (j *NRJN) Open(ctx context.Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.load(ctx); err != nil {
		// The inner was opened and closed inside CollectCtx; only the outer
		// remains to clean up.
		closeQuietly(j.Left)
		return err
	}
	return nil
}

// load binds evaluators and materializes the scored inner input.
func (j *NRJN) load(ctx context.Context) error {
	j.cancel.reset(ctx)
	j.acct.releaseAll()
	j.acct.budget = j.Budget
	var err error
	if j.lScore, err = j.LeftScore.Bind(j.Left.Schema()); err != nil {
		return err
	}
	rScore, err := j.RightScore.Bind(j.Right.Schema())
	if err != nil {
		return err
	}
	if j.predEv, err = bindPred(j.Pred, j.schema); err != nil {
		return err
	}
	inner, err := CollectCtx(ctx, j.Right)
	if err != nil {
		return err
	}
	// The whole inner is buffered until Close.
	if err := j.acct.charge(len(inner)); err != nil {
		return err
	}
	if cap(j.inner) < len(inner) {
		j.inner = make([]scored, 0, len(inner))
	} else {
		j.inner = j.inner[:0]
	}
	j.innerMax = math.Inf(-1)
	for _, t := range inner {
		v, err := rScore(t)
		if err != nil {
			return err
		}
		if v.IsNull() {
			// NULL-score inner tuples cannot rank but were still consumed:
			// they count toward RightDepth below.
			continue
		}
		s, err := finiteScore(v.AsFloat(), "NRJN", "inner")
		if err != nil {
			return err
		}
		j.inner = append(j.inner, scored{t, s})
		if s > j.innerMax {
			j.innerMax = s
		}
	}
	j.pq.grow(sizeHint(float64(j.QueueHint)))
	j.outPool.reset(j.schema.Len())
	j.seq = 0
	j.lSeen = 0
	j.lDone = false
	j.stats = RankJoinStats{RightDepth: len(inner)}
	return nil
}

// threshold bounds the combined score of unseen join results.
func (j *NRJN) threshold() float64 {
	if j.lDone || len(j.inner) == 0 {
		return math.Inf(-1)
	}
	if j.lSeen == 0 {
		return math.Inf(1)
	}
	return j.lastL + j.innerMax
}

// Next implements Operator.
func (j *NRJN) Next() (relation.Tuple, bool, error) {
	for {
		if err := j.cancel.poll(); err != nil {
			return nil, false, err
		}
		if len(j.pq) > 0 && j.pq[0].score >= j.threshold()-scoreEps {
			it := j.pq.pop()
			j.acct.release(1)
			j.stats.Emitted++
			return it.tuple, true, nil
		}
		if j.lDone {
			if len(j.pq) > 0 {
				it := j.pq.pop()
				j.acct.release(1)
				j.stats.Emitted++
				return it.tuple, true, nil
			}
			return nil, false, nil
		}
		t, ok, err := j.Left.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.lDone = true
			continue
		}
		// The tuple was consumed from the outer input: it counts toward the
		// depth even when a NULL score drops it from ranking.
		j.stats.LeftDepth++
		if err := j.Budget.depthOK(j.stats.LeftDepth); err != nil {
			return nil, false, err
		}
		v, err := j.lScore(t)
		if err != nil {
			return nil, false, err
		}
		if v.IsNull() {
			continue
		}
		s, err := finiteScore(v.AsFloat(), "NRJN", "outer")
		if err != nil {
			return nil, false, err
		}
		if j.lSeen > 0 && s > j.lastL+scoreEps {
			return nil, false, fmt.Errorf("exec: NRJN outer input violated descending-score contract (%v after %v)", s, j.lastL)
		}
		j.lastL = s
		j.lSeen++
		for _, m := range j.inner {
			out := j.outPool.concat(t, m.t)
			pass, err := expr.EvalBool(j.predEv, out)
			if err != nil {
				return nil, false, err
			}
			if !pass {
				j.outPool.put(out)
				continue
			}
			if err := j.acct.charge(1); err != nil {
				return nil, false, err
			}
			j.pq.push(rankItem{score: s + m.s, seq: j.seq, tuple: out})
			j.seq++
			if len(j.pq) > j.stats.MaxQueue {
				j.stats.MaxQueue = len(j.pq)
			}
		}
	}
}

// Close implements Operator.
func (j *NRJN) Close() error {
	j.inner = nil
	j.pq = nil
	j.acct.releaseAll()
	return j.Left.Close()
}

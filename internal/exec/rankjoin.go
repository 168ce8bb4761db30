package exec

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// This file is the rank-join kernel and the two rank joins built on it. The
// paper's Section-2 rank join is one idea — ranked inputs, a threshold over
// their top and last scores, a priority queue that releases a result once it
// beats the threshold — so its three moving parts exist once: rankedInput
// reads and validates scored tuples, scoreQueue orders pending results, and
// rankBuffer.release decides when one may leave. HRJN, NRJN, AnyK and TA
// (ta.go) differ only in how they find matches.
//
// A pending result is queued by reference — row indices into the operator's
// own buffers — and its output row is built only when release hands it out.
// The queue grows with the depths reached (the Section-4 model's
// d_L·d_R·s), while only k results ever leave it, so a candidate that is
// queued and then dropped at Close costs its queue slot and nothing else.

// scoreEps absorbs floating-point noise when comparing combined scores
// against the threshold.
const scoreEps = 1e-9

// maxJoinWidth bounds how many inputs one rank operator joins, so a queued
// candidate — an HRJN combination, an AnyK solution, a TA object — is an
// index vector that fits in a fixed array and queuing it never allocates.
// Join queries are far narrower.
const maxJoinWidth = 8

// rowRefs is a queued HRJN combination — its left and right row indices
// into the inputs' hashInput.rows — or a TA object, one heap row per list.
type rowRefs [maxJoinWidth]int32

// finiteScore rejects NaN scores and clamps infinite ones to the finite
// float range at the rank-join input boundary. The threshold arithmetic adds
// terms from opposite inputs (e.g. topL+lastR): with topL=+Inf and
// lastR=-Inf the bound becomes NaN, every `score >= threshold-eps`
// comparison turns false, and early termination is silently disabled — the
// join degrades to a full drain. Clamping ±Inf to ±MaxFloat64 preserves the
// score ordering (no finite score exceeds it) while keeping every
// threshold sum finite; a NaN score has no position in a ranking at all, so
// it fails loudly like a sort-contract violation.
func finiteScore(s float64, op string, input int) (float64, error) {
	if math.IsNaN(s) {
		return 0, fmt.Errorf("exec: %s input %d produced NaN score", op, input)
	}
	if math.IsInf(s, 1) {
		return math.MaxFloat64, nil
	}
	if math.IsInf(s, -1) {
		return -math.MaxFloat64, nil
	}
	return s, nil
}

// RankJoinStats captures the measured quantities the paper's Section 5
// experiments report: the depth reached into each input, the high-water mark
// of the output priority queue (the operator's ranking buffer), and the
// number of results emitted. Operators with more than two inputs report
// their first and last input as left and right.
type RankJoinStats struct {
	LeftDepth  int
	RightDepth int
	MaxQueue   int
	Emitted    int
}

// StatsReporter is implemented by operators that measure their input depths
// and ranking-buffer usage (HRJN, NRJN and AnyK). It is the one source of
// those figures: the engine's session report, the experiment harness and the
// EXPLAIN ANALYZE collector all read it.
type StatsReporter interface {
	Stats() RankJoinStats
}

// scored pairs a tuple with its input score so probes avoid re-evaluation.
type scored struct {
	t relation.Tuple
	s float64
}

// rankedInput is the one scored-input reader of the rank operators: HRJN's
// inputs, NRJN's outer and inner, and AnyK's levels all consume tuples
// through it, so the depth cap, the NULL-score drop, the NaN/±Inf boundary
// and the descending-score contract are each enforced in exactly one place.
//
// Every row it reads carries a row id. While the input reads a stored
// relation by row id (see bindImages), the score comes from that relation's
// column images at the row id and the tuple is only passed on; otherwise the
// row id is -1 and the score is evaluated on the tuple.
type rankedInput struct {
	in    Operator
	score expr.Eval
	// scoreImages reads the score from column images while imaged is set.
	scoreImages
	// rowSrc is the input while a run reads it by row id, nil otherwise.
	rowSrc rowSource
	// budget is consulted for the per-input depth cap (nil = unlimited).
	budget *Budget
	// op and idx name the input in errors.
	op  string
	idx int
	// ordered inputs must arrive in descending score order; unordered ones
	// (NRJN's inner, AnyK's levels) are fully drained and only track top.
	ordered bool

	// top is the best score seen (the first one, on an ordered input) and
	// last the most recent; seen counts scored tuples and depth every tuple
	// consumed, so depth matches the tuples pulled from the input.
	top, last   float64
	seen, depth int
	done        bool
}

// bind resolves the score evaluator against the input's schema and names the
// input for errors. An operator binds its inputs the first time it opens and
// keeps them bound: a reopened operator reads the same schemas.
func (r *rankedInput) bind(op string, idx int, in Operator, score expr.Expr, ordered bool) error {
	ev, err := score.Bind(in.Schema())
	if err != nil {
		return err
	}
	*r = rankedInput{in: in, score: ev, op: op, idx: idx, ordered: ordered}
	r.setScore(score, in.Schema())
	return nil
}

// reset clears the read state for a run whose depth cap budget enforces
// (called from Open).
func (r *rankedInput) reset(budget *Budget) {
	r.budget = budget
	r.top, r.last, r.seen, r.depth, r.done = 0, 0, 0, 0, false
}

// read consumes one tuple from the input. ok=false means nothing to join
// this round: the input is exhausted (done is set) or the tuple was dropped
// for a NULL score.
//
// It is one Next per call on purpose. The readers behind a threshold (HRJN's
// inputs, NRJN's outer) stop as soon as the bound allows, and which tuple
// they pull next depends on the tuple just read; a read-ahead batch would
// over-pull a child rank join or IndexScan past that point — more depth, more
// buffered tuples — and change the pull order the depth counts and queue
// sequence numbers follow. The readers that drain their input whatever they
// find (NRJN's inner, AnyK's levels, Sort) go through batchSource or
// tupleLender and call admit directly.
func (r *rankedInput) read() (t relation.Tuple, rid int32, s float64, ok bool, err error) {
	rid = -1
	if r.rowSrc != nil {
		t, rid, ok, err = r.rowSrc.nextRow()
	} else {
		t, ok, err = r.in.Next()
	}
	if err != nil {
		return nil, 0, 0, false, err
	}
	if !ok {
		r.done = true
		return nil, 0, 0, false, nil
	}
	s, ok, err = r.admit(t, rid)
	return t, rid, s, ok, err
}

// admit validates one consumed row and folds its score into top/last/seen.
// The row counts toward the depth before any NULL-score drop.
func (r *rankedInput) admit(t relation.Tuple, rid int32) (s float64, ok bool, err error) {
	if err := r.count(); err != nil {
		return 0, false, err
	}
	var f float64
	null := false
	if r.imaged {
		f, null = r.imageScore(rid)
	} else {
		v, err := r.score(t)
		if err != nil {
			return 0, false, err
		}
		if null = v.IsNull(); !null {
			f = v.AsFloat()
		}
	}
	if null {
		// NULL scores cannot participate in ranking; drop the tuple.
		return 0, false, nil
	}
	return r.fold(f)
}

// count counts one consumed tuple toward the depth and checks the cap.
func (r *rankedInput) count() error {
	r.depth++
	return r.budget.depthOK(r.depth)
}

// fold passes a non-NULL score through finiteScore and the descending
// contract into top/last/seen.
func (r *rankedInput) fold(v float64) (s float64, ok bool, err error) {
	if s, err = finiteScore(v, r.op, r.idx); err != nil {
		return 0, false, err
	}
	switch {
	case r.seen == 0:
		r.top = s
	case !r.ordered:
		// s is finite, so a compare is the max; which zero top keeps on a
		// ±0 tie cannot change a threshold test.
		if s > r.top {
			r.top = s
		}
	case s > r.last+scoreEps:
		return 0, false, fmt.Errorf("exec: %s input %d violated descending-score contract (%v after %v)", r.op, r.idx, s, r.last)
	}
	r.last = s
	r.seen++
	return s, true, nil
}

// scoreItem is one queued payload with its release key.
type scoreItem[T any] struct {
	score float64
	seq   int
	v     T
}

// scoreQueue is a max-heap on score with FIFO tie-breaking for determinism,
// holding every rank operator's candidates by reference: HRJN's and AnyK's
// inline index vectors, NRJN's (outer tuple, inner row) pairs. It is
// hand-rolled rather than layered over container/heap: the standard heap's
// any-typed Push/Pop interface boxes every item, costing two heap allocations
// per buffered result on the per-tuple path. (score, seq) is a strict total
// order — seq is unique — so the pop order is identical to container/heap's
// regardless of internal arrangement.
type scoreQueue[T any] struct {
	items []scoreItem[T]
	seq   int
}

// prior reports whether element i beats element j (higher score, FIFO ties).
func (q *scoreQueue[T]) prior(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.score != b.score {
		return a.score > b.score
	}
	return a.seq < b.seq
}

// push inserts a payload, sifting it up to its heap position.
func (q *scoreQueue[T]) push(score float64, v T) {
	q.items = append(q.items, scoreItem[T]{score: score, seq: q.seq, v: v})
	q.seq++
	s := q.items
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.prior(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the top payload. The vacated slot is zeroed before
// the slice shrinks so whatever a popped payload references becomes
// GC-reclaimable as soon as the caller drops it — leaving it in the slice's
// spare capacity would pin it until the operator closes.
func (q *scoreQueue[T]) pop() T {
	s := q.items
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	v := s[n].v
	s[n] = scoreItem[T]{}
	q.items = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && q.prior(r, l) {
			best = r
		}
		if !q.prior(best, i) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return v
}

// queuePool files closed rank operators' queue arrays by power-of-two
// capacity class, one sync.Pool per class, as hashStorePool does for hash
// tables: a warm operator neither allocates its queue nor regrows it. A
// pooled array carries capacity, never content. No class is capped: an
// array is only handed to a queue that asks for its class, so shallow
// traffic never keeps a deep dig's array in circulation, and a class no
// queue draws from is emptied by the collector like any sync.Pool.
type queuePool[T any] struct {
	classes [queueClasses]sync.Pool
}

// Class c holds arrays of exactly 1<<(minQueueShift+c) items; the smallest
// is 16 (768 bytes of HRJN candidates).
const (
	minQueueShift = 4
	queueClasses  = bits.UintSize - minQueueShift
)

// Queue arrays by payload: HRJN combinations and TA objects, NRJN pairs,
// AnyK solutions.
var (
	refsQueues queuePool[rowRefs]
	pairQueues queuePool[outerPair]
	solQueues  queuePool[anykSol]
)

// take returns an empty array of the smallest class holding n items, in the
// holder it travels in; an empty class makes one of exactly its size.
func (p *queuePool[T]) take(n int) *[]scoreItem[T] {
	c := 0
	if n > 1<<minQueueShift {
		c = bits.Len(uint(n-1)) - minQueueShift
	}
	if a, ok := p.classes[c].Get().(*[]scoreItem[T]); ok {
		return a
	}
	a := make([]scoreItem[T], 0, 1<<(minQueueShift+c))
	return &a
}

// give returns items to the pool in holder a, cleared of the payloads it
// held, under the largest class its capacity fills.
func (p *queuePool[T]) give(a *[]scoreItem[T], items []scoreItem[T]) {
	c := bits.Len(uint(cap(items))) - 1 - minQueueShift
	if c < 0 {
		return
	}
	clear(items)
	*a = items[:0]
	p.classes[c].Put(a)
}

// releaseRows builds the rows a rank operator releases. By default each is a
// fresh array, caller-owned forever. A parent that copies every row it reads
// into rows of its own and holds none past its own Close, which runs before
// its input's — RankAssign, HRJN, NRJN's outer — marks its direct input with
// readCopied when it binds it; the operator then carves its rows from pooled
// value chunks and hands them back, cleared, at its own Close. A session then
// allocates no object per released row. The chunks live in one package-level
// pool, never on the operator between runs, so an idle tree holds no row.
type releaseRows struct {
	// copied is set by a copying parent; chunk is the newest chunk of this
	// run (each links to the one filled before it) and spare its unused tail.
	copied bool
	chunk  *releaseChunk
	spare  []relation.Value
}

// releaseChunkValues is the size of one pooled chunk: 20 kB of values, the
// rows of a shallow top-k session's every rank join in one or two chunks.
const releaseChunkValues = 512

// releaseChunk is one pooled block of release-row values.
type releaseChunk struct {
	vals [releaseChunkValues]relation.Value
	prev *releaseChunk
}

var releaseChunkPool = sync.Pool{New: func() any { return new(releaseChunk) }}

// readCopied marks in, when it is a rank operator, as read by a parent that
// copies what it reads (see releaseRows). Any other operator is left alone.
func readCopied(in Operator) {
	if r, ok := in.(interface{ readCopied() }); ok {
		r.readCopied()
	}
}

// readCopied is the mark, promoted to every operator embedding the rows.
func (r *releaseRows) readCopied() { r.copied = true }

// newRow returns an empty row with room for n values: a fresh array unless
// the parent copies, else carved from the run's chunks.
func (r *releaseRows) newRow(n int) relation.Tuple {
	if !r.copied || n > releaseChunkValues {
		return make(relation.Tuple, 0, n)
	}
	if len(r.spare) < n {
		c := releaseChunkPool.Get().(*releaseChunk)
		c.prev, r.chunk = r.chunk, c
		r.spare = c.vals[:]
	}
	t := r.spare[:0:n]
	r.spare = r.spare[n:]
	return t
}

// recycleRows hands the run's chunks back to the pool, each cleared of the
// values it held (Close). The newest chunk's unused tail is still clear.
func (r *releaseRows) recycleRows() {
	used := releaseChunkValues - len(r.spare)
	for c := r.chunk; c != nil; {
		prev := c.prev
		clear(c.vals[:used])
		c.prev = nil
		releaseChunkPool.Put(c)
		c, used = prev, releaseChunkValues
	}
	r.chunk, r.spare = nil, nil
}

// rankBuffer is a rank operator's ranking buffer: the score queue, the
// release step, and the bookkeeping around them. acct is the operator's one
// accountant — its input buffers (hash tables, the NRJN inner, AnyK's
// levels) charge it too, so close returns everything the operator holds.
type rankBuffer[T any] struct {
	pq       scoreQueue[T]
	acct     accountant
	maxQueue int
	emitted  int
	// pool supplies the queue's array, held in arr between reset and close.
	pool *queuePool[T]
	arr  *[]scoreItem[T]
}

// reset prepares the buffer for a run charging budget (called from Open).
// The queue's array is taken from the class of the last run's high-water
// mark, so a warm operator reopens with the capacity its last run reached.
func (b *rankBuffer[T]) reset(budget *Budget) {
	b.acct.releaseAll()
	b.acct.budget = budget
	if b.arr == nil {
		b.arr = b.pool.take(b.maxQueue)
		b.pq.items = *b.arr
	}
	b.pq.items, b.pq.seq = b.pq.items[:0], 0
	b.maxQueue, b.emitted = 0, 0
}

// offer charges and queues one pending result. A full queue moves into the
// next class's array and gives its old one back, so the queue's array is
// always a pooled class.
func (b *rankBuffer[T]) offer(score float64, v T) error {
	if err := b.acct.charge(1); err != nil {
		return err
	}
	if n := len(b.pq.items); n == cap(b.pq.items) {
		a := b.pool.take(n + 1)
		*a = append(*a, b.pq.items...)
		b.pool.give(b.arr, b.pq.items)
		b.arr, b.pq.items = a, *a
	}
	b.pq.push(score, v)
	if n := len(b.pq.items); n > b.maxQueue {
		b.maxQueue = n
	}
	return nil
}

// release is the one release step: the best pending result leaves once it
// beats the threshold (no unseen combination can outrank it), and the queue
// drains unconditionally once every input is exhausted.
func (b *rankBuffer[T]) release(threshold float64, exhausted bool) (v T, ok bool) {
	if len(b.pq.items) == 0 || !(exhausted || b.pq.items[0].score >= threshold-scoreEps) {
		return v, false
	}
	b.acct.release(1)
	b.emitted++
	return b.pq.pop(), true
}

// close hands the queue's array back to its pool and returns every
// outstanding charge; the counters survive for Stats.
func (b *rankBuffer[T]) close() {
	if b.arr != nil {
		b.pool.give(b.arr, b.pq.items)
		b.arr = nil
	}
	b.pq.items = nil
	b.acct.releaseAll()
}

// stats reports the buffer's counters next to the given input depths.
func (b *rankBuffer[T]) stats(leftDepth, rightDepth int) RankJoinStats {
	return RankJoinStats{LeftDepth: leftDepth, RightDepth: rightDepth, MaxQueue: b.maxQueue, Emitted: b.emitted}
}

// HRJN is the hash rank-join operator: a symmetric hash join over two
// ranked inputs whose output is released in descending combined-score order
// using the threshold
//
//	T = max(lastL + topR, topL + lastR)
//
// over the inputs still live. Both inputs must arrive in descending order of
// their score expressions; the operator verifies this contract and fails
// loudly when it is violated. The combined score is the sum of the input
// scores (the monotone linear combining function of the paper — weights live
// inside the expressions). Wider joins are trees of HRJNs, as in the paper's
// plans, with k propagated down them (Section 4).
type HRJN struct {
	Left, Right Operator
	// LeftScore and RightScore evaluate each input's score contribution.
	LeftScore, RightScore expr.Expr
	// LeftKey (over Left) and RightKey (over Right) are the equi-join key;
	// results pair tuples sharing one key value.
	LeftKey, RightKey expr.Expr
	// Residual is an optional extra join predicate over the result tuple.
	Residual expr.Expr
	// Budget, when set, is charged for every tuple buffered in the hash
	// tables and the ranking queue, and consulted for the per-input depth
	// limit. Nil means unlimited.
	Budget *Budget

	schema *relation.Schema
	ins    [2]hashInput
	resEv  expr.Eval
	buf    rankBuffer[rowRefs]
	// scratch is the one row the residual is evaluated on.
	scratch relation.Tuple
	releaseRows

	// live counts the inputs not yet exhausted; zero means no further result
	// can form. next is the input polled next. thresh caches the threshold
	// between pulls.
	live, next int
	thresh     float64

	cancel canceller
}

// hashInput is one HRJN input, or NRJN's inner: the shared reader plus the
// hash table of the tuples read so far, held in a pooled hashStore between
// Open and Close.
type hashInput struct {
	rankedInput
	key keyEval
	*hashStore
}

// hashStore is a rank join's hash table over one input: rows holds the
// buffered tuples in arrival order, keys maps a join key to its group id, and
// chains[id] threads the group's rows through their next links, so a group is
// walked in insertion order. A row stays put until Close, so a queued
// candidate can name it by index.
type hashStore struct {
	keys   keyTable
	rows   []hashRow
	chains []rowChain
}

// hashStorePool hands a closed rank join's hash tables to the next one
// opened, as sortBufferPool and anykBufferPool do for Sort and AnyK: a
// compiled tree keeps no run-time buffers between sessions, and a warm join
// neither allocates its tables nor regrows them. A pooled store carries
// capacity, never content. The ranking queue has its own pool (queuePool).
var hashStorePool = sync.Pool{New: func() any { return new(hashStore) }}

// hashRow is one buffered tuple and the next row of its key group (-1 at the
// group's end).
type hashRow struct {
	scored
	next int32
}

// rowChain is a key group's first and last row.
type rowChain struct{ head, tail int32 }

// take gives the input an empty store from the pool, first returning the one
// a reopened join still holds. The caller resets its key table.
func (in *hashInput) take() {
	in.release()
	in.hashStore = hashStorePool.Get().(*hashStore)
}

// maxPooledRows caps the rows and key groups a store carries back into the
// pool, as maxReusedSlots caps its key table. The pool pays off when the next
// join needs tables about the size the last one grew; a join that buffered
// more (a deep dig, a large NRJN inner) hands its store back without those
// arrays, so the pool never keeps one large request's tables alive.
const maxPooledRows = 1 << 12

// release returns the input's store to the pool (Close and the failed-Open
// path). Clearing rows[:len] leaves rows[:cap] free of tuples: the store came
// out of the pool that way and only appends wrote to it since.
func (in *hashInput) release() {
	st := in.hashStore
	if st == nil {
		return
	}
	clear(st.rows)
	st.rows, st.chains = st.rows[:0], st.chains[:0]
	if cap(st.rows) > maxPooledRows {
		st.rows = nil
	}
	if cap(st.chains) > maxPooledRows {
		st.chains = nil
	}
	if cap(st.keys.keys) > maxReusedSlots {
		st.keys = keyTable{}
	}
	st.keys.other = nil
	in.hashStore = nil
	hashStorePool.Put(st)
}

// sizeHint clamps an optimizer estimate into a sane pre-allocation bound:
// negative, zero, and NaN hints mean "unknown" and huge hints (from
// degenerate estimates, including +Inf) must not commit memory up front.
// The first guard is written !(est > 0) rather than est <= 0 because NaN
// compares false to everything: est <= 0 would pass NaN through to the
// second guard (also false) and into int(NaN), whose result is
// platform-undefined.
func sizeHint(est float64) int {
	const maxHint = 1 << 16
	if !(est > 0) {
		return 0
	}
	if est > maxHint {
		return maxHint
	}
	return int(est)
}

// file buffers sc at the tail of group g's chain; g equal to the number of
// chains opens the next one.
func (in *hashInput) file(g int32, sc scored) {
	row := int32(len(in.rows))
	in.rows = append(in.rows, hashRow{sc, -1})
	if int(g) < len(in.chains) {
		c := &in.chains[g]
		in.rows[c.tail].next = row
		c.tail = row
	} else {
		in.chains = append(in.chains, rowChain{row, row})
	}
}

// NewHRJN constructs the operator.
func NewHRJN(left, right Operator, leftScore, rightScore, leftKey, rightKey, residual expr.Expr) *HRJN {
	return &HRJN{
		Left: left, Right: right,
		LeftScore: leftScore, RightScore: rightScore,
		LeftKey: leftKey, RightKey: rightKey, Residual: residual,
		schema: left.Schema().Concat(right.Schema()),
		buf:    rankBuffer[rowRefs]{pool: &refsQueues},
	}
}

// Schema implements Operator.
func (j *HRJN) Schema() *relation.Schema { return j.schema }

// Stats returns the measured depths and buffer high-water mark.
func (j *HRJN) Stats() RankJoinStats { return j.buf.stats(j.ins[0].depth, j.ins[1].depth) }

// Open implements Operator: the context is forwarded to both inputs and
// polled by Next's pull loop on the sampling cadence.
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
	budget := j.Budget.bound()
	for i := range j.ins {
		in := &j.ins[i]
		in.reset(budget)
		in.openRows(&in.key)
		in.take()
		in.keys.reset(0, probeLoad)
	}
	j.cancel.reset(ctx)
	j.buf.reset(budget)
	j.live, j.next = len(j.ins), 0
	j.thresh = j.bound()
	return nil
}

// bind resolves the score, key, and residual evaluators on the first Open;
// a reopened join keeps them.
func (j *HRJN) bind() error {
	if j.resEv != nil {
		return nil
	}
	sides := [2]struct {
		in         Operator
		score, key expr.Expr
	}{{j.Left, j.LeftScore, j.LeftKey}, {j.Right, j.RightScore, j.RightKey}}
	for i, sd := range sides {
		in := &j.ins[i]
		if err := in.bind("HRJN", i, sd.in, sd.score, true); err != nil {
			return err
		}
		var err error
		if in.key, err = bindKey(sd.key, sd.in.Schema()); err != nil {
			return err
		}
	}
	ev, err := bindPred(j.Residual, j.schema)
	if err != nil {
		return err
	}
	j.resEv = ev
	// Each input row is held in a hash table until this join's Close and
	// copied into the rows it releases.
	readCopied(j.Left)
	readCopied(j.Right)
	return nil
}

// bound returns the threshold: the upper bound on the combined score of
// every join result not yet in the priority queue.
func (j *HRJN) bound() float64 {
	l, r := &j.ins[0], &j.ins[1]
	if l.seen == 0 || r.seen == 0 {
		// Cannot bound anything before seeing one tuple per input.
		return math.Inf(1)
	}
	// Only combinations with a new tuple of a live input remain unseen.
	threshold := math.Inf(-1)
	if !l.done {
		threshold = l.last + r.top
	}
	if t := l.top + r.last; !r.done && t > threshold {
		threshold = t
	}
	return threshold
}

// choose picks the next input to poll: each live input must deliver one
// scored tuple before any bound exists, so those go first, left before
// right; after that the inputs alternate: the input due next unless it is
// done, then the other.
func (j *HRJN) choose() int {
	for i := range j.ins {
		if in := &j.ins[i]; !in.done && in.seen == 0 {
			return i
		}
	}
	i := j.next
	if j.ins[i].done {
		i = 1 - i
	}
	j.next = 1 - i
	return i
}

// pull consumes one tuple from input i, updating state and queueing the join
// results it completes with the other input's tuples under the same key, in
// the order they were read.
func (j *HRJN) pull(i int) error {
	in := &j.ins[i]
	t, rid, s, ok, err := in.read()
	if err != nil {
		return err
	}
	if in.done {
		j.live--
		if len(in.rows) == 0 {
			// Every result needs a tuple of this input and it buffered none
			// (empty, or all dropped for NULL scores or keys): the join is
			// dead, so stop without reading the other input out.
			j.live = 0
		}
		return nil
	}
	if !ok {
		return nil
	}
	if null, err := in.key.read(t, rid); err != nil || null {
		return err
	}
	// The inserted tuple is buffered in its hash table until Close.
	if err := j.buf.acct.charge(1); err != nil {
		return err
	}
	in.file(in.key.intern(&in.keys), scored{t, s})
	other := &j.ins[1-i]
	g := in.key.find(&other.keys)
	if g < 0 {
		return nil
	}
	var c rowRefs
	c[i] = int32(len(in.rows) - 1)
	for r := other.chains[g].head; r >= 0; r = other.rows[r].next {
		c[1-i] = r
		if err := j.emit(&c); err != nil {
			return err
		}
	}
	return nil
}

// emit queues combination c, by reference, if it passes the residual. The
// residual sees the combination on the operator's one scratch row, so a
// rejected candidate allocates nothing and an accepted one only its queue
// slot: its output row is built when release hands it out.
func (j *HRJN) emit(c *rowRefs) error {
	score := j.ins[0].rows[c[0]].s + j.ins[1].rows[c[1]].s
	if j.Residual != nil {
		j.scratch = j.row(j.scratch[:0], c)
		pass, err := expr.EvalBool(j.resEv, j.scratch)
		if err != nil || !pass {
			return err
		}
	}
	return j.buf.offer(score, *c)
}

// row appends combination c's left and right rows to dst.
func (j *HRJN) row(dst relation.Tuple, c *rowRefs) relation.Tuple {
	return append(append(dst, j.ins[0].rows[c[0]].t...), j.ins[1].rows[c[1]].t...)
}

// Next implements Operator. The inner pull loop — unbounded when the
// threshold never drops — polls the query context on the sampling cadence,
// so a cancelled or past-deadline query escapes even mid-pull-storm.
func (j *HRJN) Next() (relation.Tuple, bool, error) {
	for {
		if err := j.cancel.poll(); err != nil {
			return nil, false, err
		}
		if c, ok := j.buf.release(j.thresh, j.live == 0); ok {
			return j.row(j.newRow(j.schema.Len()), &c), true, nil
		}
		if j.live == 0 {
			return nil, false, nil
		}
		if err := j.pull(j.choose()); err != nil {
			return nil, false, err
		}
		j.thresh = j.bound()
	}
}

// Close implements Operator.
func (j *HRJN) Close() error {
	for i := range j.ins {
		in := &j.ins[i]
		in.release()
		in.unbindImages(&in.key)
	}
	j.buf.close()
	j.scratch = nil
	j.recycleRows()
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
// join choice). Each outer tuple is tested against the inner tuples that can
// match it — those under its key when the join has a primary equi-join key,
// else all of them — in inner order; the only ranking state is the priority
// queue. The threshold after consuming an outer tuple with score s is
// s + max(inner score), since every unseen combination involves a deeper
// outer tuple.
type NRJN struct {
	Left, Right Operator
	// LeftScore and RightScore evaluate each input's score contribution.
	LeftScore, RightScore expr.Expr
	// Pred is the full join predicate over the concatenated tuple; any
	// predicate works, not just equi-joins.
	Pred expr.Expr
	// LeftKey (over Left) and RightKey (over Right), when set, are an
	// equi-join conjunct of Pred — the compiler passes the plan's primary
	// one. The inner is then filed by its key in the executor's key table,
	// and an outer tuple meets only the inner tuples under its key: like HRJN
	// and HashJoin, a NULL or NaN key matches nothing. Unset, every inner
	// tuple is one chain.
	LeftKey, RightKey expr.Expr
	// Budget, when set, is charged for the materialized inner and every
	// queued result, and consulted for the per-input depth limit.
	Budget *Budget

	schema *relation.Schema
	predEv expr.Eval
	lkey   keyEval

	// outer is read one tuple per pull; inner is read out at Open into its
	// chains — one per key, in inner order — leaving its top as the best
	// inner score.
	outer rankedInput
	inner hashInput
	buf   rankBuffer[outerPair]
	// scratch is the one row Pred is evaluated on.
	scratch relation.Tuple
	releaseRows

	cancel canceller
}

// outerPair is a queued NRJN candidate: the outer tuple, referenced as the
// outer input returned it, and the inner row it pairs with.
type outerPair struct {
	outer relation.Tuple
	inner int32
}

// NewNRJN constructs the operator.
func NewNRJN(left, right Operator, leftScore, rightScore, pred expr.Expr) *NRJN {
	return &NRJN{
		Left: left, Right: right,
		LeftScore: leftScore, RightScore: rightScore, Pred: pred,
		schema: left.Schema().Concat(right.Schema()),
		buf:    rankBuffer[outerPair]{pool: &pairQueues},
	}
}

// Schema implements Operator.
func (j *NRJN) Schema() *relation.Schema { return j.schema }

// Stats returns the measured depths and buffer high-water mark. RightDepth
// equals the materialized inner size before NULL-score drops (the
// nested-loops strategy consumes the inner fully).
func (j *NRJN) Stats() RankJoinStats { return j.buf.stats(j.outer.depth, j.inner.depth) }

// Open implements Operator: inner materialization (the blocking part
// of Open) runs under the context, and Next's outer loop polls it.
func (j *NRJN) Open(ctx context.Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.load(ctx); err != nil {
		// load closed the inner it opened; Close releases the outer and
		// whatever a partial load charged.
		_ = j.Close()
		return err
	}
	return nil
}

// keyed reports whether the inner is filed by key.
func (j *NRJN) keyed() bool { return j.LeftKey != nil && j.RightKey != nil }

// load binds evaluators and materializes the scored inner input, opening and
// closing it: the inner is read out completely, so it holds nothing Next
// needs.
func (j *NRJN) load(ctx context.Context) error {
	j.cancel.reset(ctx)
	budget := j.Budget.bound()
	j.buf.reset(budget)
	if err := j.bind(); err != nil {
		return err
	}
	in := &j.inner
	j.outer.reset(budget)
	in.reset(budget)
	in.take()
	if j.keyed() {
		// Sized for one batch of distinct keys, so a typical inner never
		// regrows it.
		in.keys.reset(DefaultBatchSize, probeLoad)
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	err := j.buffer(ctx)
	if cerr := j.Right.Close(); err == nil {
		err = cerr
	}
	return err
}

// buffer streams the opened inner into its chains batch-at-a-time, charging
// each batch before it is kept: an inner larger than the budget fails after
// one batch too many, not after the whole input is in memory. A scored tuple
// under a NULL key joins nothing and is not filed.
func (j *NRJN) buffer(ctx context.Context) error {
	var src batchSource
	src.reset(ctx, j.Right)
	b := NewBatch(DefaultBatchSize)
	in, keyed := &j.inner, j.keyed()
	for {
		if err := j.cancel.check(); err != nil {
			return err
		}
		ok, err := src.next(b, DefaultBatchSize)
		if err != nil || !ok {
			return err
		}
		// The whole inner, NULL-score tuples included, is held until Close.
		if err := j.buf.acct.charge(b.Len()); err != nil {
			return err
		}
		in.rows = slices.Grow(in.rows, b.Len())
		for _, t := range b.Tuples() {
			s, ok, err := in.admit(t, -1)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			g := int32(0)
			if keyed {
				null, err := in.key.read(t, -1)
				if err != nil {
					return err
				}
				if null {
					continue
				}
				g = in.key.intern(&in.keys)
			}
			in.file(g, scored{t, s})
		}
	}
}

// bind resolves the score, key and predicate evaluators on the first Open; a
// reopened join keeps them.
func (j *NRJN) bind() error {
	if j.predEv != nil {
		return nil
	}
	if err := j.outer.bind("NRJN", 0, j.Left, j.LeftScore, true); err != nil {
		return err
	}
	in := &j.inner
	if err := in.bind("NRJN", 1, j.Right, j.RightScore, false); err != nil {
		return err
	}
	var err error
	if j.keyed() {
		if j.lkey, err = bindKey(j.LeftKey, j.Left.Schema()); err != nil {
			return err
		}
		if in.key, err = bindKey(j.RightKey, j.Right.Schema()); err != nil {
			return err
		}
	}
	ev, err := bindPred(j.Pred, j.schema)
	if err != nil {
		return err
	}
	j.predEv = ev
	// An outer row is held on the queue until this join's Close at the
	// latest and copied into the row it releases. The inner is not marked:
	// it is closed at the end of Open while its rows stay in the chains.
	readCopied(j.Left)
	return nil
}

// threshold bounds the combined score of unseen join results.
func (j *NRJN) threshold() float64 {
	if j.outer.seen == 0 {
		return math.Inf(1)
	}
	return j.outer.last + j.inner.top
}

// matches returns the head of the inner chain outer tuple t can match, -1
// when there is none.
func (j *NRJN) matches(t relation.Tuple) (int32, error) {
	g := int32(0)
	if j.keyed() {
		null, err := j.lkey.read(t, -1)
		if err != nil || null {
			return -1, err
		}
		g = j.lkey.find(&j.inner.keys)
	}
	if g < 0 || int(g) >= len(j.inner.chains) {
		return -1, nil
	}
	return j.inner.chains[g].head, nil
}

// Next implements Operator.
func (j *NRJN) Next() (relation.Tuple, bool, error) {
	for {
		if err := j.cancel.poll(); err != nil {
			return nil, false, err
		}
		// Without a scored inner tuple no result can form: stop without
		// reading the outer out.
		exhausted := j.outer.done || j.inner.seen == 0
		if c, ok := j.buf.release(j.threshold(), exhausted); ok {
			return j.row(j.newRow(j.schema.Len()), c), true, nil
		}
		if exhausted {
			return nil, false, nil
		}
		t, _, s, ok, err := j.outer.read()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		r, err := j.matches(t)
		if err != nil {
			return nil, false, err
		}
		for ; r >= 0; r = j.inner.rows[r].next {
			c := outerPair{t, r}
			if j.Pred != nil {
				j.scratch = j.row(j.scratch[:0], c)
				pass, err := expr.EvalBool(j.predEv, j.scratch)
				if err != nil {
					return nil, false, err
				}
				if !pass {
					continue
				}
			}
			if err := j.buf.offer(s+j.inner.rows[r].s, c); err != nil {
				return nil, false, err
			}
		}
	}
}

// row appends candidate c's outer tuple and inner row to dst.
func (j *NRJN) row(dst relation.Tuple, c outerPair) relation.Tuple {
	return append(append(dst, c.outer...), j.inner.rows[c.inner].t...)
}

// Close implements Operator.
func (j *NRJN) Close() error {
	j.inner.release()
	j.buf.close()
	j.scratch = nil
	j.recycleRows()
	return j.Left.Close()
}

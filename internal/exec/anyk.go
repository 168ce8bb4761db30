package exec

import (
	"context"
	"fmt"
	"math"
	"sync"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// AnyK is a Lawler-style any-k ranked enumerator for acyclic multi-way
// equi-joins arranged as a path: input i joins input i+1 on
// LeftKeys[i] = RightKeys[i]. Where a tree of HRJNs, over inputs that must
// first arrive sorted, buffers every join combination a new tuple completes
// at each level (a product of per-key bucket sizes), AnyK builds per-level
// adjacency once and then pops results from a priority queue of partial
// solutions, expanding at most one successor per path position per pop — delay O(m·log) per result after an O(Σ n_i)
// build, independent of the join's output size (Tziavelis et al., "Optimal
// Join Algorithms Meet Top-k"; the buckets are ordered lazily as in its Lazy
// variant, so the n·log n of sorting them is paid only where enumeration
// actually reads).
//
// The build phase is bottom-up dynamic programming over the path: each tuple
// at level i learns its successor bucket at level i+1 (tuples sharing its
// join key, ordered by best achievable completion) and its own `suffix`
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

	schema *relation.Schema
	ins    []rankedInput // the shared reader, one per level (unordered)
	lkeys  []keyEval     // lkeys[i] binds LeftKeys[i] to Inputs[i]
	rkeys  []keyEval     // rkeys[i] binds RightKeys[i] to Inputs[i+1]

	// The arrays of an open AnyK, nil while it is closed.
	*anykBuffers
	built bool
	// buf queues the pending solutions; every input is read out before the
	// first one is pushed, so its release step always drains.
	buf rankBuffer[anykSol]
	releaseRows

	cancel canceller
}

// anykBuffers is everything an open AnyK builds and enumerates in. An AnyK
// keeps none of it between runs, so the arrays are recycled through
// anykBufferPool like the Sort enforcer's: a warm build allocates nothing.
// Nothing in here outlives Close — the built structure is per session.
type anykBuffers struct {
	levels []anykLevel
	// sorts are the quicksort states of the buckets enumeration has walked
	// past their best member, at most one per successor pushed.
	sorts []incSort
	batch *Batch
	// grp and fill are link's scratch: each entry's bucket (-1 once it is
	// known to complete no result) and each bucket's write cursor.
	grp, fill []int32
	// path and prefix are pop-time scratch: the popped solution's entry at
	// each level and the running sum of their scores.
	path   [maxJoinWidth]int32
	prefix [maxJoinWidth]float64
}

var anykBufferPool = sync.Pool{New: func() any {
	return &anykBuffers{levels: make([]anykLevel, 0, maxJoinWidth)}
}}

// anykLevel is one input annotated for ranked enumeration, as a structure of
// arrays over its tuples in arrival order: entry e is tuples[e], with its own
// score contribution, the best total achievable from it to the end of the
// path (suffix) and the bucket of the next level it joins with (succ). The
// entries that complete at least one result are filed — as (suffix, e)
// members, best suffix first, arrival order on ties — into one bucket per
// join key toward the previous level (level 0 has the single root bucket):
// bucket g is mem[start[g]:start[g+1]].
//
// A bucket is ordered only as far as enumeration reads it. The build puts
// each bucket's best member first — all the suffix recurrence needs — in one
// linear pass; positions past it are finalized on demand by the incremental
// quicksort, so a top-k request never orders what it does not visit.
type anykLevel struct {
	// tuples is the input itself when it lends its slice (see tupleLender),
	// else the copy in own.
	tuples, own []relation.Tuple
	// score is NaN for a tuple dropped at admission (NULL score).
	score, suffix []float64
	succ          []int32
	// keys maps this level's join key toward the previous level to a bucket.
	keys  keyTable
	start []int32
	mem   []sortEnt
	// best[g] is the suffix of bucket g's best member, the one number the
	// previous level's recurrence reads from it.
	best []float64
	// lazy[g] is 0 while only bucket g's best member is final, else one more
	// than the index of its quicksort state in anykBuffers.sorts.
	lazy []int32
	// img is what the level reads from column images instead of its tuples.
	img levelImages
}

// levelImages are the column images one AnyK level reads in place of its
// tuples when its input is a bare SeqScan (see bindImages): the score's when
// it is a ScoreSum of numeric columns, each join key's when the key is a bare
// numeric column. Whatever has no image is evaluated on the tuple, so a level
// whose images cover score and keys touches a stored tuple only to emit it.
type levelImages struct {
	// terms are the score's weighted columns in ScoreSum term order, empty
	// when the score is evaluated on the tuple.
	terms []imageTerm
	// lkey and rkey image the level's join keys toward the next and the
	// previous level; nil reads the key through its keyEval.
	lkey, rkey *relation.ColumnImage
}

// imageTerm is one weighted column of a ScoreSum.
type imageTerm struct {
	w   float64
	img *relation.ColumnImage
}

// score returns entry e's score and whether it is NULL, computed as
// ScoreSum.Bind computes it — the same terms in the same order, the same
// arithmetic, NULL as soon as one term is.
func (im *levelImages) score(e int) (float64, bool) {
	total := 0.0
	for _, t := range im.terms {
		if t.img.IsNull(e) {
			return 0, true
		}
		total += t.w * t.img.Vals[e]
	}
	return total, false
}

// anykSol is a pending (partial) solution: an index vector selecting one
// bucket position per level and the deviation level below which the vector
// is frozen for successor generation. Its total score is its key in the
// scoreQueue.
type anykSol struct {
	dev int8
	idx [maxJoinWidth]int32
}

// NewAnyK constructs the operator; inputs, scores, and adjacent key pairs
// must align, and the path width is capped at maxJoinWidth.
func NewAnyK(inputs []Operator, scores, leftKeys, rightKeys []expr.Expr) (*AnyK, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("exec: AnyK needs >=2 inputs, got %d", len(inputs))
	}
	if len(inputs) > maxJoinWidth {
		return nil, fmt.Errorf("exec: AnyK supports at most %d inputs, got %d", maxJoinWidth, len(inputs))
	}
	if len(scores) != len(inputs) || len(leftKeys) != len(inputs)-1 || len(rightKeys) != len(inputs)-1 {
		return nil, fmt.Errorf("exec: AnyK arity mismatch (%d inputs, %d scores, %d/%d keys)",
			len(inputs), len(scores), len(leftKeys), len(rightKeys))
	}
	return &AnyK{Inputs: inputs, Scores: scores, LeftKeys: leftKeys, RightKeys: rightKeys,
		schema: concatSchemas(inputs), ins: make([]rankedInput, len(inputs)),
		buf: rankBuffer[anykSol]{pool: &solQueues}}, nil
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

// Open implements Operator. The build itself is deferred to the first
// Next call so cancellation during the (blocking) build surfaces as a Next
// error like every other operator's pull loop.
func (j *AnyK) Open(ctx context.Context) error {
	j.cancel.reset(ctx)
	m := len(j.Inputs)
	for i, in := range j.Inputs {
		if err := in.Open(ctx); err != nil {
			closeQuietly(j.Inputs[:i]...)
			return err
		}
	}
	if err := j.bind(); err != nil {
		closeQuietly(j.Inputs...)
		return err
	}
	budget := j.Budget.bound()
	for i := range j.ins {
		j.ins[i].reset(budget)
	}
	j.built = false
	j.buf.reset(budget)
	if j.anykBuffers == nil {
		j.anykBuffers = anykBufferPool.Get().(*anykBuffers)
	}
	j.levels = j.levels[:m]
	j.sorts = j.sorts[:0]
	return nil
}

// bind resolves the score and key evaluators on the first Open; a reopened
// enumerator keeps them.
func (j *AnyK) bind() error {
	if j.lkeys != nil {
		return nil
	}
	m := len(j.Inputs)
	lkeys, rkeys := make([]keyEval, m-1), make([]keyEval, m-1)
	for i, in := range j.Inputs {
		err := j.ins[i].bind("AnyK", i, in, j.Scores[i], false)
		if err == nil && i < m-1 {
			lkeys[i], err = bindKey(j.LeftKeys[i], in.Schema())
		}
		if err == nil && i > 0 {
			rkeys[i-1], err = bindKey(j.RightKeys[i-1], in.Schema())
		}
		if err != nil {
			return err
		}
	}
	j.lkeys, j.rkeys = lkeys, rkeys
	return nil
}

// drainLevel reads input i out into its level batch-natively: an input that
// lends its tuples is annotated in place (from its column images when it is a
// bare stored scan), any other is copied batch by batch. Each batch is
// admitted, then charged for the tuples that scored; a tuple with a NULL
// score cannot contribute to any result and is marked dropped.
func (j *AnyK) drainLevel(i int) error {
	in, lv := &j.ins[i], &j.levels[i]
	lv.score = lv.score[:0]
	lv.img = levelImages{terms: lv.img.terms[:0]}
	// admit admits entries [lo, hi) of the level as one batch.
	admit := func(lo, hi int) error {
		if err := j.cancel.check(); err != nil {
			return err
		}
		scored := 0
		for e := lo; e < hi; e++ {
			var s float64
			var ok bool
			var err error
			if len(lv.img.terms) > 0 {
				s, ok, err = in.admitScore(lv.img.score(e))
			} else {
				s, ok, err = in.admit(lv.tuples[e])
			}
			if err != nil {
				return err
			}
			if ok {
				scored++
			} else {
				s = math.NaN()
			}
			lv.score = append(lv.score, s)
		}
		return j.buf.acct.charge(scored)
	}
	if lender, ok := in.in.(tupleLender); ok {
		// A scan nothing has read from lends its whole heap, which its
		// relation's column images — fetched after the lend — cover.
		scan, whole := in.in.(*SeqScan)
		whole = whole && scan.pos == 0
		lv.tuples = lender.lendRest()
		if whole {
			j.bindImages(i, scan.Rel)
		}
		for lo := 0; lo < len(lv.tuples); lo += DefaultBatchSize {
			if err := admit(lo, min(lo+DefaultBatchSize, len(lv.tuples))); err != nil {
				return err
			}
		}
		return nil
	}
	if j.batch == nil {
		j.batch = NewBatch(DefaultBatchSize)
	}
	var src batchSource
	src.reset(j.cancel.ctx, in.in)
	lv.own = lv.own[:0]
	for {
		ok, err := src.next(j.batch, DefaultBatchSize)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		lo := len(lv.own)
		lv.own = append(lv.own, j.batch.Tuples()...)
		lv.tuples = lv.own
		if err := admit(lo, len(lv.own)); err != nil {
			return err
		}
	}
}

// bindImages points level i at the column images of rel, the stored relation
// whose whole heap the level's input lent — the heap only grows, so an image
// taken after the lend covers every lent row. The handles go into the level's
// pooled array, so a warm build allocates nothing for them.
func (j *AnyK) bindImages(i int, rel *relation.Relation) {
	im := &j.levels[i].img
	if sum, ok := j.Scores[i].(expr.ScoreSum); ok {
		for _, t := range sum.Terms {
			var c *relation.ColumnImage
			if col, ok := expr.ColIndex(t.E, rel.Schema()); ok {
				c = rel.ColumnImage(col)
			}
			if c == nil {
				im.terms = im.terms[:0]
				break
			}
			im.terms = append(im.terms, imageTerm{t.Weight, c})
		}
	}
	if i < len(j.lkeys) && j.lkeys[i].bare {
		im.lkey = rel.ColumnImage(j.lkeys[i].col)
	}
	if i > 0 && j.rkeys[i-1].bare {
		im.rkey = rel.ColumnImage(j.rkeys[i-1].col)
	}
}

// link is one step of the backward dynamic program: with the next level
// linked, it gives every entry of level lvl its successor bucket and suffix
// bound, drops (and releases) the entries that complete no result, and files
// the rest into this level's buckets with each bucket's best member first.
func (j *AnyK) link(lvl int) error {
	lv := &j.levels[lvl]
	var next *anykLevel
	if lvl < len(j.levels)-1 {
		next = &j.levels[lvl+1]
	}
	n := len(lv.tuples)
	lv.suffix = resized(lv.suffix, n)
	if next != nil {
		lv.succ = resized(lv.succ, n)
	}
	if lvl > 0 {
		lv.keys.reset(n, levelLoad)
	}
	j.grp = resized(j.grp, n)
	// Pass one sizes the buckets: start[g+1] counts bucket g's members. Each
	// key comes from the level's column image of it when there is one, else
	// from the tuple.
	lk, rk := lv.img.lkey, lv.img.rkey
	lv.start = append(lv.start[:0], 0)
	scored := 0
	for e := 0; e < n; e++ {
		if err := j.cancel.poll(); err != nil {
			return err
		}
		j.grp[e] = -1
		s := lv.score[e]
		if s != s {
			continue // dropped at admission, never charged
		}
		scored++
		if next != nil {
			succ := int32(-1)
			if lk != nil {
				if !lk.IsNull(e) {
					succ = next.keys.findFloat(lk.Vals[e])
				}
			} else {
				k, err := j.lkeys[lvl].of(lv.tuples[e])
				if err != nil {
					return err
				}
				succ = next.keys.find(k)
			}
			if succ < 0 {
				continue // NULL key, or no completion below
			}
			lv.succ[e] = succ
			s += next.best[succ]
		}
		lv.suffix[e] = s
		g := int32(0)
		if lvl > 0 {
			if rk != nil {
				if rk.IsNull(e) {
					continue
				}
				g = lv.keys.internFloat(rk.Vals[e])
			} else {
				k, err := j.rkeys[lvl-1].of(lv.tuples[e])
				if err != nil {
					return err
				}
				if k.IsNull() {
					continue
				}
				g = lv.keys.intern(k)
			}
		}
		if int(g) == len(lv.start)-1 {
			lv.start = append(lv.start, 0)
		}
		lv.start[g+1]++
		j.grp[e] = g
	}
	groups := len(lv.start) - 1
	for g := 0; g < groups; g++ {
		lv.start[g+1] += lv.start[g]
	}
	filed := int(lv.start[groups])
	// The scored entries that were not filed complete no result.
	j.buf.acct.release(scored - filed)

	// Pass two files the members bucket by bucket, in arrival order except
	// that a bucket's best member so far is kept in its first position.
	lv.mem = resized(lv.mem, filed)
	j.fill = resized(j.fill, groups)
	copy(j.fill, lv.start)
	for e, g := range j.grp {
		if g < 0 {
			continue
		}
		x := sortEnt{key: sortKeyBits(lv.suffix[e], true), seq: e}
		p, first := j.fill[g], lv.start[g]
		j.fill[g]++
		// A later arrival displaces the best only with a strictly better key.
		if p > first && x.key < lv.mem[first].key {
			lv.mem[first], x = x, lv.mem[first]
		}
		lv.mem[p] = x
	}
	lv.best = resized(lv.best, groups)
	for g := range lv.best {
		lv.best[g] = lv.suffix[lv.mem[lv.start[g]].seq]
	}
	lv.lazy = resized(lv.lazy, groups)
	clear(lv.lazy)
	return nil
}

// build runs the bottom-up phase: drain every input, then assign suffix
// bounds and successor buckets backward along the path.
func (j *AnyK) build() error {
	for i := range j.levels {
		if err := j.drainLevel(i); err != nil {
			return err
		}
		if len(j.levels[i].tuples) > math.MaxInt32 {
			return fmt.Errorf("exec: AnyK input %d exceeds %d tuples", i, math.MaxInt32)
		}
	}
	for lvl := len(j.levels) - 1; lvl >= 0; lvl-- {
		if err := j.link(lvl); err != nil {
			return err
		}
	}
	if root := &j.levels[0]; len(root.best) > 0 {
		if err := j.buf.offer(root.best[0], anykSol{}); err != nil {
			return err
		}
	}
	j.built = true
	return nil
}

// member returns the entry at position pos of bucket g of level lvl, ordering
// the bucket as far as pos first; ok=false past the bucket's end.
func (j *AnyK) member(lvl int, g, pos int32) (e int, ok bool, err error) {
	lv := &j.levels[lvl]
	lo, hi := lv.start[g], lv.start[g+1]
	if pos >= hi-lo {
		return 0, false, nil
	}
	if pos > 0 {
		if lv.lazy[g] == 0 {
			// First step past the best member: give the bucket a quicksort
			// state, reusing a recycled one's pivot stack when there is one.
			if n := len(j.sorts); n < cap(j.sorts) {
				j.sorts = j.sorts[:n+1]
			} else {
				j.sorts = append(j.sorts, incSort{})
			}
			lv.lazy[g] = int32(len(j.sorts))
			j.sorts[lv.lazy[g]-1].start(lv.mem[lo:hi], 1)
		}
		for q := &j.sorts[lv.lazy[g]-1]; q.sorted <= int(pos); {
			if err := q.refine(&j.cancel); err != nil {
				return 0, false, err
			}
		}
	}
	return lv.mem[lo+pos].seq, true, nil
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

	// Walk the solution: its entry at every level (each position in the
	// vector was final when the solution was pushed) and the running prefix
	// scores. bucket[lvl] is the bucket the level's position indexes.
	var bucket [maxJoinWidth]int32
	for lvl := range j.levels {
		lv := &j.levels[lvl]
		g := bucket[lvl]
		e := lv.mem[lv.start[g]+sol.idx[lvl]].seq
		j.path[lvl] = int32(e)
		j.prefix[lvl] = lv.score[e]
		if lvl > 0 {
			j.prefix[lvl] += j.prefix[lvl-1]
		}
		if lvl+1 < len(j.levels) {
			bucket[lvl+1] = lv.succ[e]
		}
	}

	for lvl := int(sol.dev); lvl < len(j.levels); lvl++ {
		ni := sol.idx[lvl] + 1
		e, ok, err := j.member(lvl, bucket[lvl], ni)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			continue
		}
		succ := anykSol{dev: int8(lvl)}
		copy(succ.idx[:lvl], sol.idx[:lvl])
		succ.idx[lvl] = ni
		score := j.levels[lvl].suffix[e]
		if lvl > 0 {
			score += j.prefix[lvl-1]
		}
		if err := j.buf.offer(score, succ); err != nil {
			return nil, false, err
		}
	}

	out := j.newRow(j.schema.Len())
	for lvl := range j.levels {
		out = append(out, j.levels[lvl].tuples[j.path[lvl]]...)
	}
	return out, true, nil
}

// Close implements Operator: the arrays go back to the pool cleared of the
// tuples they referenced, and every outstanding charge is returned.
func (j *AnyK) Close() error {
	if b := j.anykBuffers; b != nil {
		for i := range b.levels {
			lv := &b.levels[i]
			clear(lv.own)
			lv.tuples = nil
			clear(lv.img.terms[:cap(lv.img.terms)])
			lv.img = levelImages{terms: lv.img.terms[:0]}
		}
		for i := range b.sorts {
			b.sorts[i].ents = nil
		}
		if b.batch != nil {
			b.batch.Reset()
		}
		j.anykBuffers = nil
		anykBufferPool.Put(b)
	}
	j.built = false
	j.buf.close()
	j.recycleRows()
	return closeAll(j.Inputs)
}

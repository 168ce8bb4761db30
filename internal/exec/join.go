package exec

import (
	"context"
	"fmt"
	"math"

	"rankopt/internal/catalog"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// bindPred binds an optional predicate against a schema; nil predicates
// become always-true evaluators.
func bindPred(pred expr.Expr, sch *relation.Schema) (expr.Eval, error) {
	if pred == nil {
		return func(relation.Tuple) (relation.Value, error) {
			return relation.Bool(true), nil
		}, nil
	}
	return pred.Bind(sch)
}

// NestedLoopsJoin joins by looping the materialized inner per outer tuple.
// It preserves the outer (left) input's order and is pipelined on the outer.
type NestedLoopsJoin struct {
	Left, Right Operator
	Pred        expr.Expr

	schema *relation.Schema
	ev     expr.Eval
	inner  []relation.Tuple
	cur    relation.Tuple
	ipos   int
	done   bool
}

// NewNestedLoopsJoin constructs the join; Pred may be nil (cross product).
func NewNestedLoopsJoin(left, right Operator, pred expr.Expr) *NestedLoopsJoin {
	return &NestedLoopsJoin{
		Left: left, Right: right, Pred: pred,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *NestedLoopsJoin) Schema() *relation.Schema { return j.schema }

// Open implements Operator: materializes the inner input, polling the context.
func (j *NestedLoopsJoin) Open(ctx context.Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	inner, err := CollectCtx(ctx, j.Right)
	if err != nil {
		closeQuietly(j.Left)
		return err
	}
	j.inner = inner
	ev, err := bindPred(j.Pred, j.schema)
	if err != nil {
		closeQuietly(j.Left)
		return err
	}
	j.ev = ev
	j.cur = nil
	j.ipos = 0
	j.done = false
	return nil
}

// Next implements Operator.
func (j *NestedLoopsJoin) Next() (relation.Tuple, bool, error) {
	for {
		if j.done {
			return nil, false, nil
		}
		if j.cur == nil {
			t, ok, err := j.Left.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.done = true
				return nil, false, nil
			}
			j.cur = t
			j.ipos = 0
		}
		for j.ipos < len(j.inner) {
			out := j.cur.Concat(j.inner[j.ipos])
			j.ipos++
			pass, err := expr.EvalBool(j.ev, out)
			if err != nil {
				return nil, false, err
			}
			if pass {
				return out, true, nil
			}
		}
		j.cur = nil
	}
}

// Close implements Operator.
func (j *NestedLoopsJoin) Close() error {
	j.inner = nil
	return j.Left.Close()
}

// IndexNLJoin joins by looking each outer tuple's key up in an index on the
// inner relation: a binary search in the index's sorted image, whose equal
// run is the matches in heap order. It preserves the outer order and is
// fully pipelined.
type IndexNLJoin struct {
	Left     Operator
	InnerRel *relation.Relation
	InnerIdx *catalog.Index
	// OuterKey evaluates the join key from an outer tuple.
	OuterKey expr.Expr
	// Residual is an optional extra predicate over the joined tuple.
	Residual expr.Expr

	schema  *relation.Schema
	keyEv   expr.Eval
	resEv   expr.Eval
	img     *relation.SortedImage
	cur     relation.Tuple
	matches []int
	mpos    int
	done    bool
	// Probes counts index lookups, for cost validation.
	Probes int
}

// NewIndexNLJoin constructs the join.
func NewIndexNLJoin(left Operator, innerRel *relation.Relation, innerIdx *catalog.Index, outerKey, residual expr.Expr) *IndexNLJoin {
	return &IndexNLJoin{
		Left: left, InnerRel: innerRel, InnerIdx: innerIdx,
		OuterKey: outerKey, Residual: residual,
		schema: left.Schema().Concat(innerRel.Schema()),
	}
}

// Schema implements Operator.
func (j *IndexNLJoin) Schema() *relation.Schema { return j.schema }

// Open implements Operator, forwarding the context to the outer input.
func (j *IndexNLJoin) Open(ctx context.Context) error {
	if j.InnerIdx == nil {
		return fmt.Errorf("exec: index nested-loops join without inner index")
	}
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	keyEv, err := j.OuterKey.Bind(j.Left.Schema())
	if err != nil {
		closeQuietly(j.Left)
		return err
	}
	resEv, err := bindPred(j.Residual, j.schema)
	if err != nil {
		closeQuietly(j.Left)
		return err
	}
	j.keyEv, j.resEv = keyEv, resEv
	j.img = j.InnerIdx.Image()
	j.cur = nil
	j.done = false
	j.Probes = 0
	return nil
}

// Next implements Operator.
func (j *IndexNLJoin) Next() (relation.Tuple, bool, error) {
	for {
		if j.done {
			return nil, false, nil
		}
		if j.cur == nil {
			t, ok, err := j.Left.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.done = true
				return nil, false, nil
			}
			key, err := j.keyEv(t)
			if err != nil {
				return nil, false, err
			}
			j.cur = t
			j.mpos = 0
			j.Probes++
			j.matches = j.img.Lookup(key)
		}
		for j.mpos < len(j.matches) {
			rid := j.matches[j.mpos]
			j.mpos++
			out := j.cur.Concat(j.InnerRel.Tuple(rid))
			pass, err := expr.EvalBool(j.resEv, out)
			if err != nil {
				return nil, false, err
			}
			if pass {
				return out, true, nil
			}
		}
		j.cur = nil
	}
}

// Close implements Operator.
func (j *IndexNLJoin) Close() error { return j.Left.Close() }

// HashJoin builds a hash table on the left input and streams the right
// input through it. It preserves the right (probe) input's order.
type HashJoin struct {
	Left, Right Operator
	// LeftKey and RightKey are the equi-join key expressions on each side.
	LeftKey, RightKey expr.Expr
	// Residual is an optional extra predicate over the joined tuple.
	Residual expr.Expr
	// Budget, when set, is charged for every tuple held in the build table.
	Budget *Budget
	// BuildSizeHint, when positive, presizes the build table (the compiler
	// sets it from the left input's cardinality estimate) so the build avoids
	// incremental map growth.
	BuildSizeHint int
	// PerTupleBuild selects the scalar reference build: the left input is
	// drained one Next at a time (polling per tuple), keys are evaluated
	// through the bound expression, and the table is an interface-keyed
	// built-in map — the executor exactly as it was before vectorization.
	// The differential oracle and the batch parity tests run this side
	// against the vectorized build/probe, which doubles as an independent
	// implementation check on keyTable.
	PerTupleBuild bool

	schema *relation.Schema
	// keys maps a build key to its group id and groups[id] holds the build
	// tuples under it, in arrival order. ref is the scalar reference build's
	// own table, deliberately not a keyTable (see PerTupleBuild).
	keys   keyTable
	groups [][]relation.Tuple
	ref    map[any][]relation.Tuple
	// lKey, rKey and resEv are bound on the first Open.
	lKey    keyEval
	rKey    keyEval
	resEv   expr.Eval
	cur     relation.Tuple
	matches []relation.Tuple
	mpos    int
	done    bool
	acct    accountant
	cancel  canceller
	src     batchSource
	in      *Batch
	arena   tupleArena
	// kbuf holds one probe batch's normalized key bits (the vectorized
	// probe's key-extraction pass).
	kbuf []uint64
	// MaxTable records the build-table tuple count for buffer accounting.
	MaxTable int
}

// NewHashJoin constructs the join.
func NewHashJoin(left, right Operator, leftKey, rightKey, residual expr.Expr) *HashJoin {
	return &HashJoin{
		Left: left, Right: right, LeftKey: leftKey, RightKey: rightKey, Residual: residual,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *HashJoin) Schema() *relation.Schema { return j.schema }

// Open implements Operator: drains the left input into the hash table; the
// blocking build polls the context and
// charges the budget per buffered build tuple. A failed Open drops the table
// and returns its charge.
func (j *HashJoin) Open(ctx context.Context) error {
	if err := j.open(ctx); err != nil {
		j.keys, j.groups, j.ref = keyTable{}, nil, nil
		j.acct.releaseAll()
		return err
	}
	return nil
}

func (j *HashJoin) open(ctx context.Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.build(ctx); err != nil {
		closeQuietly(j.Left)
		return err
	}
	if err := j.Left.Close(); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	if j.resEv == nil {
		rKey, err := bindKey(j.RightKey, j.Right.Schema())
		if err != nil {
			closeQuietly(j.Right)
			return err
		}
		resEv, err := bindPred(j.Residual, j.schema)
		if err != nil {
			closeQuietly(j.Right)
			return err
		}
		j.rKey, j.resEv = rKey, resEv
	}
	j.cur = nil
	j.done = false
	j.cancel.reset(ctx)
	j.src.reset(ctx, j.Right)
	return nil
}

// build drains the opened left input into the hash table, batch-at-a-time:
// one context check per batch, key extraction by direct column load when the
// key is a bare column, and a presized key table.
func (j *HashJoin) build(ctx context.Context) error {
	j.acct.releaseAll()
	j.acct.budget = j.Budget.bound()
	if j.lKey.ev == nil {
		lKey, err := bindKey(j.LeftKey, j.Left.Schema())
		if err != nil {
			return err
		}
		j.lKey = lKey
	}
	lKey := j.lKey
	if j.PerTupleBuild {
		return j.buildPerTuple(ctx, lKey.ev)
	}
	hint := sizeHint(float64(j.BuildSizeHint))
	j.keys.reset(hint, probeLoad)
	// The hint counts rows, not distinct keys: the groups start small and
	// double as keys actually arrive.
	j.groups = make([][]relation.Tuple, 0, min(hint, DefaultBatchSize))
	j.ref = nil
	n := 0
	var src batchSource
	src.reset(ctx, j.Left)
	b := NewBatch(DefaultBatchSize)
	for {
		if err := CtxErr(ctx); err != nil {
			return err
		}
		ok, err := src.next(b, DefaultBatchSize)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for _, t := range b.Tuples() {
			k, err := lKey.of(t)
			if err != nil {
				return err
			}
			if k.IsNull() {
				continue
			}
			if err := j.acct.charge(1); err != nil {
				return err
			}
			j.insert(k, t)
			n++
		}
	}
	j.MaxTable = n
	return nil
}

// buildPerTuple is the scalar reference build (PerTupleBuild): one Next per
// left tuple with a cancellation poll each pull, closure key evaluation, and
// interface-keyed insertion — no direct column loads, no key table.
func (j *HashJoin) buildPerTuple(ctx context.Context, lKeyEv expr.Eval) error {
	j.groups = nil
	j.ref = map[any][]relation.Tuple{}
	n := 0
	var c canceller
	c.reset(ctx)
	for {
		if err := c.poll(); err != nil {
			return err
		}
		t, ok, err := j.Left.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		k, err := lKeyEv(t)
		if err != nil {
			return err
		}
		if k.IsNull() {
			continue
		}
		if err := j.acct.charge(1); err != nil {
			return err
		}
		hk, g := j.refGroup(k)
		j.ref[hk] = append(g, t)
		n++
	}
	j.MaxTable = n
	return nil
}

// refGroup returns the reference table's map key for k and the tuples
// already under it.
func (j *HashJoin) refGroup(k relation.Value) (any, []relation.Tuple) {
	hk := k.HashKey()
	return hk, j.ref[hk]
}

// insert files one build tuple under its key.
func (j *HashJoin) insert(k relation.Value, t relation.Tuple) {
	if id := int(j.keys.intern(k)); id < len(j.groups) {
		j.groups[id] = append(j.groups[id], t)
	} else {
		j.groups = append(j.groups, []relation.Tuple{t})
	}
}

// lookup returns the build tuples matching probe key k (nil for NULL — SQL
// equi-joins never match on NULL).
func (j *HashJoin) lookup(k relation.Value) []relation.Tuple {
	if j.ref != nil {
		if k.IsNull() {
			return nil
		}
		_, g := j.refGroup(k)
		return g
	}
	if id := j.keys.find(k); id >= 0 {
		return j.groups[id]
	}
	return nil
}

// Next implements Operator.
func (j *HashJoin) Next() (relation.Tuple, bool, error) {
	for {
		if j.done {
			return nil, false, nil
		}
		if j.cur == nil {
			t, ok, err := j.Right.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				j.done = true
				return nil, false, nil
			}
			k, err := j.rKey.ev(t)
			if err != nil {
				return nil, false, err
			}
			j.cur = t
			j.mpos = 0
			j.matches = j.lookup(k)
		}
		for j.mpos < len(j.matches) {
			out := j.matches[j.mpos].Concat(j.cur)
			j.mpos++
			pass, err := expr.EvalBool(j.resEv, out)
			if err != nil {
				return nil, false, err
			}
			if pass {
				return out, true, nil
			}
		}
		j.cur = nil
	}
}

// NextBatch implements BatchOperator: whole probe batches flow through the
// table per round, with the probe key loaded directly when it is a bare
// column and the residual evaluation skipped entirely when no residual
// exists. Output tuples are carved from the arena. A probe tuple's fan-out
// may push out past max for one round — the Batch grows, and consumers that
// must not overreceive (Limit) truncate.
func (j *HashJoin) NextBatch(out *Batch, max int) (bool, error) {
	out.Reset()
	if j.in == nil {
		j.in = NewBatch(min(max, DefaultBatchSize))
	}
	for {
		if j.done {
			return false, nil
		}
		if err := j.cancel.check(); err != nil {
			return false, err
		}
		ok, err := j.src.next(j.in, max)
		if err != nil {
			return false, err
		}
		if !ok {
			j.done = true
			return false, nil
		}
		// One match per probe tuple is the guess; a wider fan-out grows the
		// chunks geometrically.
		j.arena.reserve(j.in.Len(), j.schema.Len())
		if j.rKey.bare && j.Residual == nil && j.ref == nil && j.keys.other == nil {
			// The hot shape: bare-column key, no residual, every build key
			// numeric — probed column-at-a-time in two passes. Pass one
			// extracts and normalizes every key's bit pattern into kbuf,
			// applying the build side's min-max join filter: keys outside
			// the reachable range — with NULL, non-numeric, and NaN keys,
			// which match nothing either — mark their slot emptyKeyBits, and
			// pass two skips their hash and table walk entirely. On
			// selective joins the filter prunes most probes down to two
			// float compares. Splitting the passes also breaks the per-tuple
			// dependence chain (Value load → hash → table load), so
			// consecutive table probes overlap in the pipeline instead of
			// serializing on each other's cache misses.
			nt := &j.keys
			keys := nt.keys
			if len(keys) == 0 {
				return false, fmt.Errorf("exec: hash join probe against uninitialized build table")
			}
			shift := nt.shift
			// Indexing through len(keys)-1 (a power of two) lets the compiler
			// drop the bounds checks inside the walk.
			mask := uint64(len(keys)) - 1
			ki := j.rKey.col
			in := j.in.Tuples()
			if cap(j.kbuf) < len(in) {
				j.kbuf = make([]uint64, len(in))
			}
			kbuf := j.kbuf[:len(in)]
			lo, hi := nt.lo, nt.hi
			for x := range in {
				t := in[x]
				if ki >= len(t) {
					return false, fmt.Errorf("exec: hash join probe tuple too short (arity %d)", len(t))
				}
				fb := uint64(emptyKeyBits)
				// The range test is negated so NaN (false both ways) prunes.
				if f, ok := t[ki].Float64(); ok && f >= lo && f <= hi {
					if f != 0 {
						fb = math.Float64bits(f)
					} else {
						fb = 0
					}
				}
				kbuf[x] = fb
			}
			for x, fb := range kbuf {
				if fb == emptyKeyBits {
					continue
				}
				i := (hashBits(fb) >> shift) & mask
				for {
					kb := keys[i&mask]
					if kb == fb {
						t := in[x]
						for _, m := range j.groups[nt.ids[i&mask]] {
							out.Append(j.arena.concat(m, t))
						}
						break
					}
					if kb == emptyKeyBits {
						break
					}
					i = (i + 1) & mask
				}
			}
		} else {
			for _, t := range j.in.Tuples() {
				k, err := j.rKey.of(t)
				if err != nil {
					return false, err
				}
				if j.Residual == nil {
					for _, m := range j.lookup(k) {
						out.Append(j.arena.concat(m, t))
					}
					continue
				}
				for _, m := range j.lookup(k) {
					joined := j.arena.concat(m, t)
					pass, err := expr.EvalBool(j.resEv, joined)
					if err != nil {
						return false, err
					}
					if pass {
						out.Append(joined)
					}
				}
			}
		}
		if out.Len() > 0 {
			return true, nil
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	j.keys, j.groups, j.ref = keyTable{}, nil, nil
	j.in.drop()
	j.arena = tupleArena{}
	j.acct.releaseAll()
	return j.Right.Close()
}

// SortMergeJoin merges two inputs sorted ascending on their join keys.
// Inputs MUST already be ordered; the optimizer inserts Sort enforcers when
// they are not.
type SortMergeJoin struct {
	Left, Right       Operator
	LeftKey, RightKey expr.Expr
	Residual          expr.Expr

	schema *relation.Schema
	lKeyEv expr.Eval
	rKeyEv expr.Eval
	resEv  expr.Eval

	lTup, rTup relation.Tuple
	lKey, rKey relation.Value
	lDone      bool
	rDone      bool
	group      []relation.Tuple // right tuples sharing the current key
	gpos       int
	emitting   bool
}

// NewSortMergeJoin constructs the join.
func NewSortMergeJoin(left, right Operator, leftKey, rightKey, residual expr.Expr) *SortMergeJoin {
	return &SortMergeJoin{
		Left: left, Right: right, LeftKey: leftKey, RightKey: rightKey, Residual: residual,
		schema: left.Schema().Concat(right.Schema()),
	}
}

// Schema implements Operator.
func (j *SortMergeJoin) Schema() *relation.Schema { return j.schema }

// Open implements Operator, forwarding the context to both inputs.
func (j *SortMergeJoin) Open(ctx context.Context) error {
	if err := j.Left.Open(ctx); err != nil {
		return err
	}
	if err := j.Right.Open(ctx); err != nil {
		closeQuietly(j.Left)
		return err
	}
	if err := j.prime(); err != nil {
		closeQuietly(j.Left, j.Right)
		return err
	}
	return nil
}

// prime binds evaluators and fetches the first tuple from each side.
func (j *SortMergeJoin) prime() error {
	var err error
	if j.lKeyEv, err = j.LeftKey.Bind(j.Left.Schema()); err != nil {
		return err
	}
	if j.rKeyEv, err = j.RightKey.Bind(j.Right.Schema()); err != nil {
		return err
	}
	if j.resEv, err = bindPred(j.Residual, j.schema); err != nil {
		return err
	}
	j.lTup, j.rTup = nil, nil
	j.lDone, j.rDone = false, false
	j.group = nil
	j.emitting = false
	if err := j.advanceLeft(); err != nil {
		return err
	}
	return j.advanceRight()
}

func (j *SortMergeJoin) advanceLeft() error {
	t, ok, err := j.Left.Next()
	if err != nil {
		return err
	}
	if !ok {
		j.lDone = true
		j.lTup = nil
		return nil
	}
	k, err := j.lKeyEv(t)
	if err != nil {
		return err
	}
	j.lTup, j.lKey = t, k
	return nil
}

func (j *SortMergeJoin) advanceRight() error {
	t, ok, err := j.Right.Next()
	if err != nil {
		return err
	}
	if !ok {
		j.rDone = true
		j.rTup = nil
		return nil
	}
	k, err := j.rKeyEv(t)
	if err != nil {
		return err
	}
	j.rTup, j.rKey = t, k
	return nil
}

// Next implements Operator.
func (j *SortMergeJoin) Next() (relation.Tuple, bool, error) {
	for {
		// Emit pending (left, group) combinations.
		if j.emitting {
			for j.gpos < len(j.group) {
				out := j.lTup.Concat(j.group[j.gpos])
				j.gpos++
				pass, err := expr.EvalBool(j.resEv, out)
				if err != nil {
					return nil, false, err
				}
				if pass {
					return out, true, nil
				}
			}
			// Move to next left tuple; if it shares the key, re-emit group.
			prev := j.lKey
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
			if !j.lDone && j.lKey.Equal(prev) {
				j.gpos = 0
				continue
			}
			j.emitting = false
			j.group = nil
		}
		if j.lDone || j.rDone {
			return nil, false, nil
		}
		cmp := j.lKey.Compare(j.rKey)
		switch {
		case cmp < 0:
			if err := j.advanceLeft(); err != nil {
				return nil, false, err
			}
		case cmp > 0:
			if err := j.advanceRight(); err != nil {
				return nil, false, err
			}
		default:
			// Gather the right group for this key.
			key := j.rKey
			j.group = j.group[:0]
			for !j.rDone && j.rKey.Equal(key) {
				j.group = append(j.group, j.rTup)
				if err := j.advanceRight(); err != nil {
					return nil, false, err
				}
			}
			j.gpos = 0
			j.emitting = true
		}
	}
}

// Close implements Operator.
func (j *SortMergeJoin) Close() error {
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

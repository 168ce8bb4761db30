package exec

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sync"

	"rankopt/internal/catalog"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// SortKey describes one component of a sort order.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// Sort materializes its input and emits it ordered by the given keys. It is
// the "glue a sort operator" enforcer of the paper: it turns any plan into
// one with a required (interesting) order at the price of buffering its
// whole input. It is rank-aware about what it pays for that order: Open
// only drains the input and evaluates the keys (O(n)); the order itself is
// produced by an incremental quicksort (Paredes–Navarro) that each Next
// advances just far enough to finalize the next position. A consumer that
// stops after d tuples — a rank join reading its depth, a Limit — pays an
// expected O(n + d·log d) instead of O(n·log n), and a full drain performs
// exactly the partitions of an ordinary quicksort.
//
// The emitted sequence is that of a stable sort: ties on every key break on
// arrival order. NULL sorts before every value and NaN before every number
// (ascending; DESC reverses both), so the order is total.
//
// When the order already exists — an index on the one column the key reads,
// over the relation the input scans (see IndexOrder) — Sort walks that
// index instead and the input is never opened.
type Sort struct {
	In   Operator
	Keys []SortKey
	// Budget, when set, is charged for every buffered input tuple — the full
	// input, since Sort materializes everything — until Close.
	Budget *Budget
	// SizeHint, when positive, pre-sizes the copy of an input that does not
	// lend its tuples (the compiler passes the plan's input cardinality), so
	// the drain does not grow it by doubling.
	SizeHint int
	// Index, when set, is an index in the Sort's own order. Open walks its
	// sorted image instead of draining the input whenever the indexed
	// column holds numbers only: the walk buffers nothing and charges no
	// budget (the image is catalog memory, as it is for IndexScan).
	Index *IndexOrder

	// evals are the bound key evaluators, one per key.
	evals []expr.Eval
	// The arrays of an open Sort, nil while it is closed.
	*sortBuffers
	// tuples is the input in arrival order: the input's own slice when it
	// lends one (see tupleLender), the copy in sortBuffers.own otherwise.
	tuples []relation.Tuple
	// ents[:pos] was emitted. buffered is the drained tuple count, kept past
	// Close for gauges.
	pos      int
	buffered int
	cancel   canceller
	acct     accountant
	// walking is set while Open chose the index walk, and kept past Close
	// for gauges.
	walking bool
	walk    indexWalk
}

// IndexOrder is an index whose order is a Sort's own: the Sort's one key is
// Weight times column Col of Rel (Weight finite and positive; 1 for the bare
// column), Idx indexes that column, and the Sort's input is a bare scan of
// Rel.
type IndexOrder struct {
	Idx    *catalog.Index
	Rel    *relation.Relation
	Col    int
	Weight float64
}

// indexWalk is an open Sort's walk of its index: the image positions not yet
// reached and the run of equal keys being emitted.
type indexWalk struct {
	// rids are the positions not yet reached, the ascending walk taking
	// from the front and the descending one from the back.
	rids   []int
	vals   []float64
	tuples []relation.Tuple
	weight float64
	desc   bool
	// run is the rest of the current run of equal keys, in heap order;
	// merged holds a run that spans several column values.
	run, merged []int
}

// sortBuffers are the arrays an open Sort works in.
type sortBuffers struct {
	// own receives the tuples of an input that does not lend them.
	own []relation.Tuple
	// The quicksort refines ents, the permutation of the input; its vals and
	// tieDesc are empty in the ranked case (one numeric, non-NULL key).
	incSort
	batch *Batch
}

// sortBufferPool hands a closed Sort's arrays to the next one opened. A Sort
// keeps no arrays between runs (an idle compiled tree holds none), so without
// it every query allocates — and the collector zeroes, scans and frees — 16
// to 40 bytes per buffered tuple; at the query rates the incremental sort
// reaches, that allocation rate is what sized the serving process's heap.
var sortBufferPool = sync.Pool{New: func() any { return new(sortBuffers) }}

// tupleLender is an input whose remaining output already exists as one
// immutable tuple slice — a scan of a relation heap, a materialized buffer.
// Sort orders such a slice in place of a copy of it, which leaves 16 bytes
// per tuple of its own instead of 40.
type tupleLender interface {
	// lendRest returns everything the opened operator has left to emit and
	// leaves it exhausted. The caller must not write to the slice.
	lendRest() []relation.Tuple
}

// NewSort constructs a sort enforcer.
func NewSort(in Operator, keys ...SortKey) *Sort { return &Sort{In: in, Keys: keys} }

// NewSortByScore sorts descending on a score expression — the common
// enforcer for ranking queries.
func NewSortByScore(in Operator, score expr.Expr) *Sort {
	return NewSort(in, SortKey{E: score, Desc: true})
}

// Schema implements Operator.
func (s *Sort) Schema() *relation.Schema { return s.In.Schema() }

// gauges exposes the buffered and emitted counts of the most recent run to
// the Analyzed collector: their gap is the ordering work a partial read
// never paid for.
func (s *Sort) gauges() analyzeGauges {
	g := analyzeGauges{sortBuffered: s.buffered, sortEmitted: s.pos}
	if s.walking {
		g.sortIndex = s.Index.Idx.Name
	}
	return g
}

// Open implements Operator: the blocking drain polls the context and
// charges the budget for every buffered tuple. A failed Open leaves nothing
// charged.
func (s *Sort) Open(ctx context.Context) error {
	if s.openWalk() {
		return nil
	}
	if err := s.In.Open(ctx); err != nil {
		return err
	}
	if err := s.drain(ctx); err != nil {
		closeQuietly(s.In)
		s.release()
		return err
	}
	return nil
}

// openWalk starts the index walk when the Sort has an index in its order and
// the indexed column holds no NULL and no string or bool, reporting whether
// it did. A walk emits what the incremental sort would: the image keeps
// equal column values in heap order, and nextRun emits each run of equal
// keys in heap order too.
func (s *Sort) openWalk() bool {
	s.walking = false
	ix := s.Index
	if ix == nil {
		return false
	}
	tuples := ix.Rel.Tuples()
	img := ix.Rel.ColumnImage(ix.Col)
	if img == nil || img.Null != nil || len(img.Vals) != len(tuples) {
		return false
	}
	rids := ix.Idx.Image().Rids
	if len(rids) != len(tuples) {
		return false
	}
	s.walk = indexWalk{rids: rids, vals: img.Vals, tuples: tuples, weight: ix.Weight,
		desc: s.Keys[0].Desc, merged: s.walk.merged}
	s.walking = true
	s.pos, s.buffered = 0, 0
	return true
}

// key is the sort key of heap row rid, as sortKeyBits orders the weighted
// value the key expression evaluates to.
func (w *indexWalk) key(rid int) uint64 { return sortKeyBits(w.weight*w.vals[rid], false) }

// nextRun takes the next run of equal keys off the walk — the front
// ascending, the back descending; a positive weight keeps equal keys
// adjacent in the image — and leaves it in run in heap order. A run of one
// column value is in heap order already; one that spans several (distinct
// values the weight maps to one key) is sorted by row id.
func (w *indexWalk) nextRun() {
	r := w.rids
	if w.desc {
		lo := len(r) - 1
		k := w.key(r[lo])
		for lo > 0 && w.key(r[lo-1]) == k {
			lo--
		}
		w.run, w.rids = r[lo:], r[:lo]
	} else {
		hi := 1
		k := w.key(r[0])
		for hi < len(r) && w.key(r[hi]) == k {
			hi++
		}
		w.run, w.rids = r[:hi], r[hi:]
	}
	if cmp.Compare(w.vals[w.run[0]], w.vals[w.run[len(w.run)-1]]) != 0 {
		w.merged = append(w.merged[:0], w.run...)
		slices.Sort(w.merged)
		w.run = w.merged
	}
}

// walkNext is Next of an index walk.
func (s *Sort) walkNext() (relation.Tuple, bool, error) {
	w := &s.walk
	if len(w.run) == 0 {
		if len(w.rids) == 0 {
			return nil, false, nil
		}
		w.nextRun()
	}
	t := w.tuples[w.run[0]]
	w.run = w.run[1:]
	s.pos++
	return t, true, nil
}

// drain buffers the opened input and evaluates the sort keys, leaving the
// entries unordered for Next to refine. While every tuple's leading key is
// numeric and non-NULL — the ranked case — the entries carry it as an
// ordered integer and most comparisons never leave the entry array; once a
// tuple breaks that, the leading key joins the others in vals.
func (s *Sort) drain(ctx context.Context) error {
	s.acct.releaseAll()
	s.acct.budget = s.Budget.bound()
	s.cancel.reset(ctx)
	s.pos, s.buffered = 0, 0
	if s.sortBuffers == nil {
		s.sortBuffers = sortBufferPool.Get().(*sortBuffers)
	}
	if err := s.bind(); err != nil {
		return err
	}
	evals := s.evals
	if err := s.buffer(ctx); err != nil {
		return err
	}
	n := len(s.tuples)
	s.buffered = n
	s.start(resized(s.ents, n), 0)

	encoded := len(s.Keys) > 0
	for i := 0; encoded && i < n; i++ {
		if err := s.cancel.poll(); err != nil {
			return err
		}
		v, err := evals[0](s.tuples[i])
		if err != nil {
			return err
		}
		f, numeric := v.Float64()
		if !numeric {
			encoded = false
			break
		}
		s.ents[i] = sortEnt{key: sortKeyBits(f, s.Keys[0].Desc), seq: i}
	}
	tie := s.Keys
	if encoded {
		tie, evals = tie[1:], evals[1:]
	} else {
		for i := range s.ents {
			s.ents[i] = sortEnt{seq: i}
		}
	}
	s.tieDesc = s.tieDesc[:0]
	for _, k := range tie {
		s.tieDesc = append(s.tieDesc, k.Desc)
	}
	s.vals = s.vals[:0]
	if len(tie) == 0 {
		return nil
	}
	if need := n * len(tie); cap(s.vals) < need {
		s.vals = make([]relation.Value, 0, need)
	}
	for _, t := range s.tuples {
		if err := s.cancel.poll(); err != nil {
			return err
		}
		for _, ev := range evals {
			v, err := ev(t)
			if err != nil {
				return err
			}
			s.vals = append(s.vals, v)
		}
	}
	return nil
}

// bind resolves the key evaluators on the first Open; a reopened Sort keeps
// them.
func (s *Sort) bind() error {
	if s.evals != nil {
		return nil
	}
	evals := make([]expr.Eval, len(s.Keys))
	for i, k := range s.Keys {
		ev, err := k.E.Bind(s.In.Schema())
		if err != nil {
			return err
		}
		evals[i] = ev
	}
	s.evals = evals
	return nil
}

// buffer sets tuples to the whole input, charging the budget for it: the
// input's own slice when it lends one, else a copy gathered batch by batch
// with one context check per batch.
func (s *Sort) buffer(ctx context.Context) error {
	if lender, ok := s.In.(tupleLender); ok {
		s.tuples = lender.lendRest()
		return s.acct.charge(len(s.tuples))
	}
	if s.batch == nil {
		s.batch = NewBatch(DefaultBatchSize)
	}
	if hint := sizeHint(float64(s.SizeHint)); cap(s.own) < hint {
		s.own = make([]relation.Tuple, 0, hint)
	}
	s.own = s.own[:0]
	var src batchSource
	src.reset(ctx, s.In)
	for {
		if err := s.cancel.check(); err != nil {
			return err
		}
		ok, err := src.next(s.batch, DefaultBatchSize)
		if err != nil {
			return err
		}
		if !ok {
			s.tuples = s.own
			return nil
		}
		if err := s.acct.charge(s.batch.Len()); err != nil {
			return err
		}
		s.own = append(s.own, s.batch.Tuples()...)
	}
}

// sortKeyBits maps a numeric key to an integer whose unsigned order is the
// key's sort order: ascending float order with -0 equal to +0 and NaN below
// -Inf, complemented for a descending key.
func sortKeyBits(f float64, desc bool) uint64 {
	var b uint64 // NaN: below the image of -Inf, which is 0x000F…
	if f == f {
		b = math.Float64bits(f + 0) // -0 + 0 is +0
		if b>>63 != 0 {
			b = ^b
		} else {
			b |= 1 << 63
		}
	}
	if desc {
		b = ^b
	}
	return b
}

// Next implements Operator.
func (s *Sort) Next() (relation.Tuple, bool, error) {
	if s.walking {
		return s.walkNext()
	}
	if s.sortBuffers == nil || s.pos >= len(s.ents) {
		return nil, false, nil
	}
	if s.pos == s.sorted {
		if err := s.refine(&s.cancel); err != nil {
			return nil, false, err
		}
	}
	t := s.tuples[s.ents[s.pos].seq]
	s.pos++
	return t, true, nil
}

// release returns the arrays to the pool, cleared of the tuples they
// referenced, and the budget charge with them, and drops a walk's hold on
// the heap. The counts gauges reports survive it.
func (s *Sort) release() {
	s.walk = indexWalk{merged: s.walk.merged[:0]}
	if b := s.sortBuffers; b != nil {
		clear(b.own)
		clear(b.vals)
		if b.batch != nil {
			b.batch.Reset()
		}
		s.sortBuffers, s.tuples = nil, nil
		sortBufferPool.Put(b)
	}
	s.acct.releaseAll()
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.release()
	return s.In.Close()
}

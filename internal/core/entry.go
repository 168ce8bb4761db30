package core

import (
	"math"
	"math/bits"
	"strings"

	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
)

// This file holds the optimizer's representation: what is derived once per
// table subset (entryInfo), once per ordered split of a subset (splitCosts)
// and once per retained plan (memoPlan), so that the enumeration's inner
// loop does per candidate only what differs per candidate.

// entryInfo is everything the planner asks about one table subset and the
// plans it retained. None of the facts depends on those plans, so they are
// derived from the mask alone, once, on first use.
type entryInfo struct {
	// level is the DP size level (number of tables).
	level int
	// label names the MEMO entry: the tables in query order, comma-joined.
	label string
	// ranked lists the subset's ranked tables in query order.
	ranked []*tableInfo
	// order is the OrderRank property over the ranked tables — the
	// interesting order expression of the subset; NoOrder when none is ranked.
	order plan.OrderProp
	// score is the partial ranking function over the subset's tables.
	score expr.ScoreSum
	// plans are the subset's retained plans, published when the subset has
	// been enumerated.
	plans []memoPlan
}

// joinInfo is one closure join predicate with the table bits of its two
// sides, so "does it connect these two subsets" is two mask tests.
type joinInfo struct {
	logical.JoinPred
	lBit, rBit uint64
}

// memoPlan is one retained plan beside what every dominance test compares.
// full is its cost at full output — what Cost(max(a.Card, b.Card)) always
// evaluates to, since Cost clamps k to the plan's own Card — and atK its
// cost at the query's k (equal to full when the query has no k or the plan
// cannot produce k rows); order is its order property's interned id and
// pipelined its First-N-Rows flag. They live here rather than on plan.Node
// because nodes are cloned on every cache hit and only the optimizer ever
// compares them.
type memoPlan struct {
	n         *plan.Node
	full, atK float64
	order     orderID
	pipelined bool
}

// orderID names an order within one optimizer run: properties that order
// the rows alike get equal ids and NoOrder is 0, so "a's order covers b's"
// is b == 0 || a == b (see covers and intern).
type orderID int32

// order is an order property beside its interned id.
type order struct {
	prop plan.OrderProp
	id   orderID
}

// intern returns p with its id, registering p if no property of the same
// order has one. Column orders are registered per join-equivalence class
// and direction: every MEMO entry applies one predicate of each class
// across each split and filters each table on the class's same-table
// equalities, so the class's columns are equal in every row of every entry
// that holds them, and a plan sorted on one is sorted on all. The returned
// prop keeps p's own column, which EXPLAIN prints.
func (o *optimizer) intern(p plan.OrderProp) order {
	if p.Kind == plan.OrderNone {
		return order{prop: p}
	}
	key := p
	if p.Kind == plan.OrderCol {
		key.Col = o.equiv.find(p.Col)
	}
	for i, q := range o.orders {
		if q.Equal(key) {
			return order{prop: p, id: orderID(i + 1)}
		}
	}
	o.orders = append(o.orders, key)
	return order{prop: p, id: orderID(len(o.orders))}
}

// input is a plan in the role of a join input: candidates over it ask what
// it charges for some number of tuples, thousands of times per split, and
// nearly always for all of them (full) or for the same prefix as the
// candidate before (k, atK).
type input struct {
	n    *plan.Node
	full float64
	// atK is n.Cost(k) for the last below-full demand k; k starts as NaN.
	k, atK float64
	// glued is n's storage when n is a sort the current split glued on, and
	// kept records that a candidate over n entered the MEMO entry: a glued
	// sort nothing kept is reused by the next split instead of discarded.
	glued *joinNode
	kept  bool
}

func newInput(n *plan.Node, full float64) input {
	return input{n: n, full: full, k: math.NaN()}
}

// cost is n.Cost(k): Cost clamps k to the plan's Card and a sort charges
// the same for any k, so both answer from full; any other demand walks the
// plan once per distinct k.
func (in *input) cost(k float64) float64 {
	if k >= in.n.Card || in.n.Op == plan.OpSort {
		return in.full
	}
	if k != in.k {
		in.k, in.atK = k, in.n.Cost(k)
	}
	return in.atK
}

// atK reports whether a plan of the given cardinality has a pruning
// endpoint below its full output: the query has a k and the plan can
// produce more than k rows.
func (o *optimizer) atK(card float64) bool { return o.kmin > 0 && o.kmin < card }

// costed evaluates a plan's two pruning endpoints. in is the plan's one
// input as a costed input (a glued sort's); nil means the plan is walked.
func (o *optimizer) costed(n *plan.Node, in *input) memoPlan {
	cost := n.Cost
	if in != nil {
		inputCost := func(_ int, k float64) float64 { return in.cost(k) }
		cost = func(k float64) float64 { return n.CostFrom(k, inputCost) }
	}
	mp := memoPlan{n: n, full: cost(n.Card)}
	mp.atK = mp.full
	if o.atK(n.Card) {
		mp.atK = cost(o.kmin)
	}
	return mp
}

// joinMethods counts the join methods a split generates; methodSlot numbers
// them (n must be one of them).
const joinMethods = 6

func methodSlot(op plan.OpType) int {
	switch op {
	case plan.OpNLJ:
		return 0
	case plan.OpINLJ:
		return 1
	case plan.OpHashJoin:
		return 2
	case plan.OpMergeJoin:
		return 3
	case plan.OpHRJN:
		return 4
	}
	return 5 // plan.OpNRJN
}

// splitCosts is the per-split tier of a join candidate's cost: each join
// method's plan.Local — the depth model's depths, the demands on the inputs
// and the method's own cost terms — at both pruning endpoints. Every
// candidate of one method in one split is the same prototype over different
// inputs, so its Local depends only on the demand and on the candidate's
// and its inputs' Card, which plans of one entry share up to the last bits
// (the selectivity product associates differently per split). An entry is
// therefore keyed by those cardinalities — the values demanded, not the
// position in the loop — and a candidate whose key differs in any bit
// costs afresh and takes the method's slot. It is fixed-size storage in the
// accumulator, emptied per split.
type splitCosts [joinMethods]localEntry

// localEntry is one method's Local at full output (demand card) and at the
// query's k, for a candidate of the given cardinality over inputs of lCard
// and rCard (0 for an index nested-loops join's absent input); card is NaN
// in an empty entry.
type localEntry struct {
	card, lCard, rCard float64
	full, atK          plan.Local
}

// reset empties the memo for the next split.
func (c *splitCosts) reset() {
	for i := range c {
		c[i].card = math.NaN()
	}
}

// local returns the join candidate n's local facts, computing them when the
// method's entry holds another key.
func (c *splitCosts) local(o *optimizer, n *plan.Node, lCard, rCard float64) *localEntry {
	e := &c[methodSlot(n.Op)]
	if e.card != n.Card || e.lCard != lCard || e.rCard != rCard {
		*e = localEntry{card: n.Card, lCard: lCard, rCard: rCard, full: n.Local(n.Card)}
		if o.atK(n.Card) {
			e.atK = n.Local(o.kmin)
		}
	}
	return e
}

// planNodes strips the cost endpoints off an entry's plans.
func planNodes(plans []memoPlan) []*plan.Node {
	out := make([]*plan.Node, len(plans))
	for i, p := range plans {
		out[i] = p.n
	}
	return out
}

// joinInfos annotates the closure predicates with their table bits.
func (o *optimizer) joinInfos(closure []logical.JoinPred) []joinInfo {
	out := make([]joinInfo, len(closure))
	for i, j := range closure {
		out[i] = joinInfo{JoinPred: j, lBit: o.tableBit(j.L.Table), rBit: o.tableBit(j.R.Table)}
	}
	return out
}

// selectivityBetween collects the (closure) join predicates connecting the
// two masks, reduced to one predicate per equivalence class, and multiplies
// their selectivities. Redundant transitive predicates are implied by the
// retained ones, so counting them would underestimate the join cardinality.
func (o *optimizer) selectivityBetween(m1, m2 uint64) ([]logical.JoinPred, float64) {
	var preds []logical.JoinPred
	for _, j := range o.joins {
		if j.lBit&m1 != 0 && j.rBit&m2 != 0 {
			preds = append(preds, j.JoinPred)
		} else if j.rBit&m1 != 0 && j.lBit&m2 != 0 {
			preds = append(preds, logical.JoinPred{L: j.R, R: j.L})
		}
	}
	preds = o.equiv.reduceByClass(preds)
	s := 1.0
	for _, jp := range preds {
		s *= o.cat.JoinSelectivity(jp.L, jp.R)
	}
	return preds, s
}

// entry returns the entry of a table subset, deriving its facts on first use.
// Entries live in o.slab; a full slab is replaced, never grown, so the
// addresses handed out stay valid.
func (o *optimizer) entry(mask uint64) *entryInfo {
	if e := o.entries[mask]; e != nil {
		return e
	}
	if len(o.slab) == cap(o.slab) {
		o.slab = make([]entryInfo, 0, max(len(o.slab), 1))
	}
	o.slab = append(o.slab, o.newEntry(mask))
	e := &o.slab[len(o.slab)-1]
	o.entries[mask] = e
	return e
}

// newEntry derives a subset's facts from its mask.
func (o *optimizer) newEntry(mask uint64) entryInfo {
	e := entryInfo{level: bits.OnesCount64(mask), order: plan.NoOrder}
	names := make([]string, 0, e.level)
	var rankedNames []string
	for _, ti := range o.tables {
		if mask&(1<<uint(ti.idx)) == 0 {
			continue
		}
		names = append(names, ti.name)
		if ti.term != nil {
			e.ranked = append(e.ranked, ti)
			rankedNames = append(rankedNames, ti.name)
		}
	}
	e.label = strings.Join(names, ",")
	if len(e.ranked) > 0 {
		e.order = plan.RankOrder(rankedNames...)
	}
	for ix, bit := range o.termBit {
		if bit&mask != 0 {
			e.score.Terms = append(e.score.Terms, o.q.Score.Terms[ix])
		}
	}
	return e
}

package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
)

// enumerateBase populates the size-1 MEMO entries: sequential scans, index
// access paths satisfying interesting orders, and eagerly enforced sorts
// (Section 3.1's eager policy).
func (o *optimizer) enumerateBase() {
	for _, ti := range o.tables {
		acc := o.newAcc(uint64(1) << uint(ti.idx))

		// Heap scan (the DC plan).
		acc.add(o.cheapBase(ti))

		// Index paths for interesting column orders (join columns, ORDER BY).
		cols := o.interestingCols(ti.name)
		for _, col := range cols {
			idx := o.cat.IndexOn(ti.name, col.Col.Name)
			if idx == nil {
				continue
			}
			acc.add(o.wrapFilters(ti, &plan.Node{
				Op:        plan.OpIndexScan,
				Table:     ti.name,
				Index:     idx,
				IndexDesc: col.Desc,
				Card:      ti.rawCard,
				P:         o.params,
				Props:     plan.Props{Order: plan.ColOrder(col.Col, col.Desc), Pipelined: true},
			}))
		}

		// Sargable filters over indexed columns become index range scans:
		// only the matching key range is touched, and the full filter stays
		// above the scan as a residual (covering strict inequalities).
		for _, f := range ti.filters {
			rs := o.rangeScanFor(ti, f)
			if rs != nil {
				acc.add(rs)
			}
		}

		// Enforced column orders for join columns lacking an index.
		for _, col := range cols {
			if o.cat.IndexOn(ti.name, col.Col.Name) != nil {
				continue
			}
			acc.add(o.sortWrap(o.cheapBase(ti),
				[]exec.SortKey{{E: col.Col, Desc: col.Desc}},
				plan.ColOrder(col.Col, col.Desc)))
		}

		if o.rankAware() && ti.term != nil {
			rankProp := plan.RankOrder(ti.name)

			// Natural ranked access: descending index scan on the score column.
			natural := false
			if ti.termIsCol {
				if idx := o.cat.IndexOn(ti.name, ti.termCol.Name); idx != nil {
					scan := &plan.Node{
						Op:        plan.OpIndexScan,
						Table:     ti.name,
						Index:     idx,
						IndexDesc: true,
						Card:      ti.rawCard,
						LSlab:     ti.termSlab,
						P:         o.params,
						Props:     plan.Props{Order: rankProp, Pipelined: true},
					}
					acc.add(o.wrapFilters(ti, scan))
					natural = true
				}
			}
			// Enforced ranked order: sort the cheapest plan by the score term.
			if !natural && !o.opts.DisableEnforcedRankInputs {
				s := o.sortWrap(o.cheapBase(ti), sortKeysByScore(expr.Sum(*ti.term)), rankProp)
				s.LSlab = ti.termSlab
				acc.add(s)
			}
		}

		// Publish each entry as it completes.
		acc.e.plans = acc.plans
		o.pc.merge(acc.pc)
	}
}

// interestingCol is a column order wanted by later operations.
type interestingCol struct {
	Col  expr.ColRef
	Desc bool
}

// interestingCols collects the interesting column orders for a table:
// join-predicate columns (ascending, for merge joins) and the ORDER BY
// column of non-ranking queries.
func (o *optimizer) interestingCols(table string) []interestingCol {
	var out []interestingCol
	seen := map[string]bool{}
	add := func(c expr.ColRef, desc bool) {
		key := c.String()
		if desc {
			key += " desc"
		}
		if c.Table == table && !seen[key] {
			seen[key] = true
			out = append(out, interestingCol{Col: c, Desc: desc})
		}
	}
	for _, j := range o.q.Joins {
		add(j.L, false)
		add(j.R, false)
	}
	if !o.q.Ranking() && o.q.OrderBy.Name != "" {
		add(o.q.OrderBy, o.q.OrderDesc)
	}
	// Group-by columns are interesting ascending: a sorted-aggregate over a
	// pre-ordered input streams and avoids the hash table.
	for _, g := range o.q.GroupBy {
		add(g, false)
	}
	return out
}

// rangeScanFor builds an index range scan for one sargable filter conjunct
// (col OP const over an indexed column), or nil when the filter does not
// qualify. The returned plan applies all of the table's filters above the
// range scan.
func (o *optimizer) rangeScanFor(ti *tableInfo, f expr.Expr) *plan.Node {
	b, ok := f.(expr.Binary)
	if !ok {
		return nil
	}
	col, cok := b.L.(expr.ColRef)
	lit, lok := b.R.(expr.Const)
	if !cok || !lok || col.Table != ti.name || lit.V.IsNull() {
		return nil
	}
	idx := o.cat.IndexOn(ti.name, col.Name)
	if idx == nil {
		return nil
	}
	scan := &plan.Node{
		Op:    plan.OpIndexRange,
		Table: ti.name,
		Index: idx,
		P:     o.params,
		Props: plan.Props{Order: plan.ColOrder(col, false), Pipelined: true},
	}
	switch b.Op {
	case expr.OpEq:
		scan.RangeLo, scan.RangeHi = lit.V, lit.V
		scan.HasLo, scan.HasHi = true, true
	case expr.OpLt, expr.OpLe:
		scan.RangeHi, scan.HasHi = lit.V, true
	case expr.OpGt, expr.OpGe:
		scan.RangeLo, scan.HasLo = lit.V, true
	default:
		return nil
	}
	scan.Card = math.Max(ti.rawCard*o.cat.FilterSelectivity(f), 1)
	return o.wrapFilters(ti, scan)
}

// wrapFilters applies the table's filters above an access path.
func (o *optimizer) wrapFilters(ti *tableInfo, scan *plan.Node) *plan.Node {
	if len(ti.filters) == 0 {
		return scan
	}
	f := &plan.Node{
		Op:       plan.OpFilter,
		Children: []*plan.Node{scan},
		Pred:     expr.And(ti.filters...),
		Card:     ti.card,
		Sel:      ti.filtSel,
		LSlab:    scan.LSlab,
		P:        o.params,
		Props:    scan.Props,
	}
	return f
}

// cheapBase returns the cheapest unordered access to the table (fresh node,
// safe to wrap).
func (o *optimizer) cheapBase(ti *tableInfo) *plan.Node {
	return o.wrapFilters(ti, &plan.Node{
		Op:    plan.OpSeqScan,
		Table: ti.name,
		Card:  ti.rawCard,
		P:     o.params,
		Props: plan.Props{Order: plan.NoOrder, Pipelined: true},
	})
}

// sortWrap glues a sort enforcer producing the given order property.
func (o *optimizer) sortWrap(p *plan.Node, keys []exec.SortKey, order plan.OrderProp) *plan.Node {
	return o.sortInto(new(joinNode), p, keys, order)
}

// sortInto is sortWrap into caller-supplied storage (the node and its child
// slot share one allocation).
func (o *optimizer) sortInto(w *joinNode, p *plan.Node, keys []exec.SortKey, order plan.OrderProp) *plan.Node {
	w.kids = [2]*plan.Node{p}
	w.n = plan.Node{
		Op:       plan.OpSort,
		Children: w.kids[:1],
		SortKeys: keys,
		Card:     p.Card,
		LSlab:    p.LSlab,
		P:        o.params,
		Props:    plan.Props{Order: order, Pipelined: false},
	}
	return &w.n
}

// maskAcc accumulates the candidate plans of one MEMO entry during
// enumeration: candidates are pruned against the entry's local list, which
// is published to the memo (and its counters folded into the optimizer's)
// once the entry is complete. The optimizer keeps one and resets it per
// entry, so its scratch storage is allocated once per run.
type maskAcc struct {
	o     *optimizer
	mask  uint64
	e     *entryInfo
	plans []memoPlan
	pc    pruneCounters
	// protos are where join candidates are assembled, one node per
	// prototype a split fills in (see joinSplit): a candidate overwrites
	// only its children, Op, Card and Props, is costed and pruned in place
	// and is copied to the heap only if it survives. cur is the candidate,
	// l and r its children as costed inputs.
	protos [3]joinNode
	cur    *joinNode
	l, r   *input
	// spare holds the glued sorts of earlier splits that no candidate kept
	// at the time referenced (see input.kept), for the next split to reuse.
	spare []*joinNode
	// costs is the current split's per-method local cost facts, and sides
	// its two sides' inputs (see sideInputs).
	costs splitCosts
	sides [2][]sideInput
}

// joinNode is a plan node allocated together with its (up to two) child
// slots.
type joinNode struct {
	n    plan.Node
	kids [2]*plan.Node
}

// newAcc readies the optimizer's accumulator for the entry of mask.
func (o *optimizer) newAcc(mask uint64) *maskAcc {
	a := &o.acc
	a.o, a.mask, a.e, a.plans, a.pc = o, mask, o.entry(mask), nil, pruneCounters{}
	return a
}

// candidate makes proto, one of the accumulator's protos, the candidate
// over the given children (r is nil for a unary-shaped node) and returns its
// node for the caller to finish.
func (a *maskAcc) candidate(proto *joinNode, l, r *input) *plan.Node {
	a.cur, a.l, a.r = proto, l, r
	proto.kids[0] = l.n
	proto.n.Children = proto.kids[:1]
	if r != nil {
		proto.kids[1] = r.n
		proto.n.Children = proto.kids[:2]
	}
	return &proto.n
}

// add costs a node built outside the scratch space (an access path, an
// any-k plan) by walking it and prunes it into the entry as given.
func (a *maskAcc) add(n *plan.Node) {
	a.insert(n, a.o.intern(n.Props.Order).id, false)
}

// addCandidate costs the current candidate, whose order property has the
// given id, over its known inputs and prunes it into the entry, moving it to
// the heap only if it survives.
func (a *maskAcc) addCandidate(order orderID) {
	a.insert(&a.cur.n, order, true)
}

// insert applies property + cost pruning to the local plan list.
func (a *maskAcc) insert(n *plan.Node, order orderID, scratch bool) {
	a.pc.gen++
	if tr := a.o.opts.Tracer; tr != nil {
		tr.OnDecision(Decision{Kind: DecisionCandidate, Level: a.e.level, Entry: a.e.label})
	}
	var mp memoPlan
	switch {
	case a.o.opts.KeepAllPlans:
		mp = memoPlan{n: n}
	case scratch:
		mp = a.costJoin(n)
	default:
		mp = a.o.costed(n, nil)
	}
	mp.order, mp.pipelined = order, n.Props.Pipelined
	kept := true
	if a.o.opts.KeepAllPlans {
		a.plans = append(a.plans, mp)
	} else {
		a.plans, kept = a.o.insertPruned(a.e, a.plans, mp, &a.pc)
	}
	if kept && scratch {
		a.l.kept = true
		if a.r != nil {
			a.r.kept = true
		}
		j := new(joinNode)
		*j = *a.cur
		j.n.Children = j.kids[:len(n.Children)]
		a.plans[len(a.plans)-1].n = &j.n
	}
}

// costJoin evaluates the current candidate n's pruning endpoints from its
// inputs' known costs and its method's local facts for this split.
func (a *maskAcc) costJoin(n *plan.Node) memoPlan {
	l, r := a.l, a.r
	rCard := 0.0
	if r != nil {
		rCard = r.n.Card
	}
	loc := a.costs.local(a.o, n, l.n.Card, rCard)
	inputCost := func(i int, k float64) float64 {
		if i == 0 {
			return l.cost(k)
		}
		return r.cost(k)
	}
	mp := memoPlan{n: n, full: n.CostWith(loc.full, inputCost)}
	mp.atK = mp.full
	if a.o.atK(n.Card) {
		mp.atK = n.CostWith(loc.atK, inputCost)
	}
	return mp
}

// enumerateJoins enumerates the subsets of masks in order, each from those
// of its ordered splits (sub, mask^sub) whose sides are connected and both
// already hold plans, taking the candidate subs from subs. Every mask
// publishes its plans as it completes, and reads only entries that completed
// before it: the DP passes every subset level by level with allSubs, greedy
// its path's prefixes with the two splits of each (see runGreedy).
func (o *optimizer) enumerateJoins(masks []uint64, subs func(subs []uint64, mask uint64) []uint64) {
	var buf []uint64
	for _, mask := range masks {
		acc := o.newAcc(mask)
		buf = subs(buf[:0], mask)
		for _, sub := range buf {
			rest := mask ^ sub
			l, r := o.entries[sub], o.entries[rest]
			if l == nil || r == nil || len(l.plans) == 0 || len(r.plans) == 0 {
				continue
			}
			if preds, s := o.selectivityBetween(sub, rest); len(preds) > 0 {
				o.joinSplit(acc, sub, rest, preds, s)
			}
		}
		// The any-k enumerator covers the whole subset in one operator, so it
		// is generated per mask rather than per split.
		o.anyKCandidates(acc)
		acc.e.plans = acc.plans
		o.pc.merge(acc.pc)
	}
}

// sideInput is one memo plan as a join input of one split: the plan itself
// and, where a join method wants an order the plan lacks, the plan under the
// glued sort — built and costed once per split and shared by every
// candidate pairing it.
type sideInput struct {
	p input
	// stream is the order p keeps when an order-preserving join streams it
	// past the other side.
	stream order
	// merge is p ordered on the split's primary join column.
	merge input
	// ranked is p ordered on its side's score expression; ranked.n is nil
	// when the order is missing and may not be enforced.
	ranked input
}

// glue returns p under a sort enforcer producing the given order, built in
// recycled storage when there is some and costed from p's known cost.
func (a *maskAcc) glue(p *input, keys []exec.SortKey, ord order) input {
	var j *joinNode
	if n := len(a.spare); n > 0 {
		j, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		j = new(joinNode)
	}
	w := a.o.sortInto(j, p.n, keys, ord.prop)
	in := newInput(w, a.o.costed(w, p).full)
	in.glued = j
	return in
}

// sideInputs prepares one side of a split in the accumulator's buffer for
// side (0 left, 1 right): col is the side's column of the primary join
// predicate; e describes the side's table subset, other the other side's.
func (a *maskAcc) sideInputs(side int, plans []memoPlan, col expr.ColRef, e, other *entryInfo, rankJoins bool) []sideInput {
	colOrder := a.o.intern(plan.ColOrder(col, false))
	var rank order
	if rankJoins {
		rank = a.o.intern(e.order)
	}
	var colKeys, scoreKeys []exec.SortKey
	out := slices.Grow(a.sides[side][:0], len(plans))[:len(plans)]
	a.sides[side] = out
	for i, mp := range plans {
		in := &out[i]
		*in = sideInput{p: newInput(mp.n, mp.full)}
		if p := preserveOuter(mp.n.Props, other); p.Kind != plan.OrderNone {
			in.stream = order{prop: p, id: mp.order}
		}
		in.merge = in.p
		if !covers(mp.order, colOrder.id) {
			if colKeys == nil {
				colKeys = []exec.SortKey{{E: col}}
			}
			in.merge = a.glue(&in.p, colKeys, colOrder)
		}
		if rankJoins {
			switch {
			case covers(mp.order, rank.id):
				in.ranked = in.p
			case !a.o.opts.DisableEnforcedRankInputs:
				if scoreKeys == nil {
					scoreKeys = sortKeysByScore(e.score)
				}
				in.ranked = a.glue(&in.p, scoreKeys, rank)
			}
		}
	}
	return out
}

// release hands the side's glued sorts that no surviving candidate
// references back for the next split to reuse.
func (a *maskAcc) release(side []sideInput) {
	for i := range side {
		for _, in := range [...]*input{&side[i].merge, &side[i].ranked} {
			if in.glued != nil && !in.kept {
				a.spare = append(a.spare, in.glued)
			}
		}
	}
}

// joinSplit generates all join candidates for one ordered (sub, rest) split,
// joined by preds — the closure predicates connecting its sides, one per
// equivalence class — of combined selectivity s. Everything that is a fact of the split — the order properties each join
// method produces or requires and their ids, the rank-join parameters, the
// enforced-sort inputs and, on first use, each method's local cost facts
// (splitCosts) — is settled once per split, and the (p1 × p2) loop only
// assembles, costs and prunes.
func (o *optimizer) joinSplit(acc *maskAcc, sub, rest uint64, preds []logical.JoinPred, s float64) {
	eL, eR := o.entry(sub), o.entry(rest)
	rankJoins := o.rankAware() && len(eL.ranked) > 0 && len(eR.ranked) > 0
	acc.costs.reset()
	lefts := acc.sideInputs(0, eL.plans, preds[0].L, eL, eR, rankJoins)
	rights := acc.sideInputs(1, eR.plans, preds[0].R, eR, eL, rankJoins)

	// The prototypes every candidate of a method family starts from.
	join, rankJoin, inlj := &acc.protos[0], &acc.protos[1], &acc.protos[2]
	join.n = plan.Node{EqPreds: preds, Sel: s, P: o.params}
	mergeOrder := o.intern(plan.ColOrder(preds[0].L, false))
	var rankOrder order
	var fired Decision
	if rankJoins {
		rankOrder = o.intern(acc.e.order)
		rankJoin.n = o.rankJoinProto(sub, rest, preds, s)
		rankJoin.n.Props.Order = rankOrder.prop
		if o.opts.Tracer != nil {
			// An interesting ranking-order expression over each input side
			// is what licenses the rank-join alternatives for this entry.
			fired = Decision{
				Kind:  DecisionOrderFired,
				Level: acc.e.level,
				Entry: acc.e.label,
				Plan:  acc.e.score.String(),
				Note:  fmt.Sprintf("inputs ordered by %s / %s fire rank-join alternatives", eL.order.Key(), eR.order.Key()),
			}
		}
	}

	// INLJ: inner must be a single base table with an index on the primary
	// join column; independent of inner subplans.
	var inner *tableInfo
	if eR.level == 1 {
		ti := o.tables[bits.TrailingZeros64(rest)]
		if idx := o.cat.IndexOn(ti.name, preds[0].R.Name); idx != nil {
			inner = ti
			inlj.n = plan.Node{
				Op:        plan.OpINLJ,
				Table:     ti.name,
				Index:     idx,
				EqPreds:   preds,
				Pred:      expr.And(ti.filters...),
				Sel:       s * ti.filtSel,
				InnerCard: ti.rawCard,
				P:         o.params,
			}
		}
	}

	for i := range lefts {
		l := &lefts[i]
		p1 := l.p.n
		card := s * p1.Card
		// INLJ generated once per outer plan.
		if inner != nil {
			cand := acc.candidate(inlj, &l.p, nil)
			cand.Card = card * inner.card
			cand.Props = plan.Props{Order: l.stream.prop, Pipelined: p1.Props.Pipelined}
			acc.addCandidate(l.stream.id)
		}

		for j := range rights {
			r := &rights[j]
			p2 := r.p.n
			jcard := math.Max(card*p2.Card, 1e-9)

			// Nested loops (outer p1, inner p2 materialized).
			cand := acc.candidate(join, &l.p, &r.p)
			cand.Op = plan.OpNLJ
			cand.Card = jcard
			cand.Props = plan.Props{Order: l.stream.prop, Pipelined: p1.Props.Pipelined}
			acc.addCandidate(l.stream.id)

			// Hash join (build p1, probe p2; probe order survives).
			cand = acc.candidate(join, &l.p, &r.p)
			cand.Op = plan.OpHashJoin
			cand.Card = jcard
			cand.Props = plan.Props{Order: r.stream.prop, Pipelined: p2.Props.Pipelined}
			acc.addCandidate(r.stream.id)

			// Sort-merge join on the primary predicate, over inputs sorted
			// by enforcers where the children lack the order.
			cand = acc.candidate(join, &l.merge, &r.merge)
			cand.Op = plan.OpMergeJoin
			cand.Card = jcard
			cand.Props = plan.Props{
				Order:     mergeOrder.prop,
				Pipelined: l.merge.n.Props.Pipelined && r.merge.n.Props.Pipelined,
			}
			acc.addCandidate(mergeOrder.id)

			if !rankJoins {
				continue
			}
			if tr := o.opts.Tracer; tr != nil {
				// Reported where each pair's rank joins are generated
				// (Format dedups the per-pair repetition).
				tr.OnDecision(fired)
			}
			// HRJN needs both inputs ranked.
			if !o.opts.DisableHRJN && l.ranked.n != nil && r.ranked.n != nil {
				cand = acc.candidate(rankJoin, &l.ranked, &r.ranked)
				cand.Op = plan.OpHRJN
				cand.Card = jcard
				cand.Props.Pipelined = l.ranked.n.Props.Pipelined && r.ranked.n.Props.Pipelined
				acc.addCandidate(rankOrder.id)
			}
			// NRJN needs only the outer ranked; the inner is materialized.
			if !o.opts.DisableNRJN && l.ranked.n != nil {
				cand = acc.candidate(rankJoin, &l.ranked, &r.p)
				cand.Op = plan.OpNRJN
				cand.Card = jcard
				cand.Props.Pipelined = l.ranked.n.Props.Pipelined
				acc.addCandidate(rankOrder.id)
			}
		}
	}
	acc.release(lefts)
	acc.release(rights)
}

// rankJoinProto builds what every rank-join node over the ordered split
// (sub, rest) shares — scores and depth-model parameters — leaving Op,
// Children, Card and Props to the caller.
func (o *optimizer) rankJoinProto(sub, rest uint64, preds []logical.JoinPred, s float64) plan.Node {
	eL, eR := o.entry(sub), o.entry(rest)
	n := plan.Node{
		EqPreds: preds,
		LScore:  eL.score,
		RScore:  eR.score,
		Sel:     s,
		LLeaves: len(eL.ranked),
		RLeaves: len(eR.ranked),
		P:       o.params,
	}
	if len(eL.ranked) == 1 {
		n.LSlab = eL.ranked[0].termSlab
	}
	if len(eR.ranked) == 1 {
		n.RSlab = eR.ranked[0].termSlab
	}
	return n
}

// preserveOuter propagates an input's order property through an
// order-preserving join: column orders on the streamed side survive; a rank
// order survives only if the other side contributes no score terms.
func preserveOuter(p plan.Props, other *entryInfo) plan.OrderProp {
	switch p.Order.Kind {
	case plan.OrderCol:
		return p.Order
	case plan.OrderRank:
		if len(other.ranked) == 0 {
			return p.Order
		}
	}
	return plan.NoOrder
}

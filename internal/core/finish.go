package core

import (
	"fmt"
	"math"

	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/plan"
	"rankopt/internal/relation"
)

// finish selects the final plan from the full-query MEMO entry's plans:
// every plan is completed (gluing a sort enforcer when it lacks the required
// output order), costs are compared at the query's k, and the winner is
// wrapped with rank annotation, limit, and projection as the query demands.
// With Options.CollectAllPlans set, every completed-and-assembled alternative
// is returned in all — the differential-testing oracle executes each one and
// asserts identical results.
func (o *optimizer) finish() (best, bestJoin *plan.Node, all []*plan.Node, err error) {
	full := o.entry(o.fullMask())
	plans := planNodes(full.plans)
	if len(plans) == 0 {
		return nil, nil, nil, fmt.Errorf("core: no plan found for %s", full.label)
	}

	var required order
	var finalKeys []exec.SortKey
	switch {
	case o.q.Ranking():
		required = o.intern(full.order)
		finalKeys = sortKeysByScore(o.q.Score)
	case o.q.OrderBy.Name != "":
		required = o.intern(plan.ColOrder(o.q.OrderBy, o.q.OrderDesc))
		finalKeys = []exec.SortKey{{E: o.q.OrderBy, Desc: o.q.OrderDesc}}
	default:
		required = o.intern(plan.NoOrder)
	}

	// A top-k-selection query (all tables ranked, joined on one unique-key
	// class) admits a Fagin TA plan as a further alternative: rank
	// aggregation instead of joining.
	if ta := o.topKSelectionPlan(); ta != nil {
		plans = append(append([]*plan.Node(nil), plans...), ta)
	}

	bestCost := math.Inf(1)
	var finishedAll []*plan.Node
	type finishedPlan struct {
		p    *plan.Node
		cost float64
		k    float64
	}
	var completed []finishedPlan
	for _, p := range plans {
		finished := p
		if !o.ordered(p, required) {
			if o.opts.UseTopKSort && o.q.Ranking() && o.q.K > 0 {
				finished = &plan.Node{
					Op:       plan.OpTopK,
					Children: []*plan.Node{p},
					Score:    o.q.Score,
					K:        o.q.K,
					Card:     math.Min(float64(o.q.K), p.Card),
					P:        o.params,
					Props:    plan.Props{Order: required.prop},
				}
			} else {
				finished = o.sortWrap(p, finalKeys, required.prop)
			}
		}
		if o.opts.CollectAllPlans {
			finishedAll = append(finishedAll, finished)
		}
		kEval := finished.Card
		if o.q.K > 0 {
			kEval = float64(o.q.K)
		}
		c := finished.Cost(kEval)
		completed = append(completed, finishedPlan{p: finished, cost: c, k: kEval})
		if c < bestCost {
			bestCost = c
			bestJoin = finished
		}
	}
	if tr := o.opts.Tracer; tr != nil {
		// The final assembly is where rank-join plans (k-sensitive cost) meet
		// blocking sort plans (k-constant cost) head on: report every
		// completed alternative's cost at the query's k, naming the winner as
		// the rival and attaching the crossover k* for rank/sort pairings.
		for _, fp := range completed {
			d := Decision{
				Kind:  DecisionFinalCost,
				Entry: "final",
				Plan:  plan.Summary(fp.p),
				Note:  fmt.Sprintf("cost %.1f at k=%.0f", fp.cost, fp.k),
			}
			if fp.p == bestJoin {
				d.Note += " (chosen)"
			} else {
				d.Rival = plan.Summary(bestJoin)
				d.CrossoverK = crossoverFor(fp.p, bestJoin)
			}
			tr.OnDecision(d)
		}
	}

	cur := bestJoin
	if o.q.Grouped() {
		agg, err := o.bestAggregation(plans)
		if err != nil {
			return nil, nil, nil, err
		}
		cur, bestJoin = agg, agg
		// Grouped queries collapse alternatives inside bestAggregation; the
		// oracle set is just the chosen plan.
		finishedAll = nil
	}
	best = o.assembleFinal(cur)
	if o.opts.CollectAllPlans {
		if len(finishedAll) == 0 {
			all = []*plan.Node{best}
		} else {
			all = make([]*plan.Node, len(finishedAll))
			for i, f := range finishedAll {
				all[i] = o.assembleFinal(f)
			}
		}
	}
	return best, bestJoin, all, nil
}

// ordered reports whether plan p of the full entry delivers the required
// order, by id, so a plan sorted on another column of the required
// column's class qualifies.
func (o *optimizer) ordered(p *plan.Node, required order) bool {
	return covers(o.intern(p.Props.Order).id, required.id)
}

// assembleFinal wraps a completed (ordered) plan with the rank annotation,
// limit, and projection the query demands — the tail every alternative
// shares, so oracle plans differ only below it.
func (o *optimizer) assembleFinal(cur *plan.Node) *plan.Node {
	if o.q.Ranking() {
		cur = &plan.Node{
			Op:       plan.OpRank,
			Children: []*plan.Node{cur},
			Score:    o.q.Score,
			Card:     cur.Card,
			P:        o.params,
			Props:    cur.Props,
		}
	}
	if o.q.K > 0 {
		cur = &plan.Node{
			Op:       plan.OpLimit,
			Children: []*plan.Node{cur},
			K:        o.q.K,
			Card:     math.Min(float64(o.q.K), cur.Card),
			P:        o.params,
			Props:    cur.Props,
		}
	}
	if len(o.q.Select) > 0 {
		items := make([]exec.ProjectItem, len(o.q.Select))
		for i, sel := range o.q.Select {
			items[i] = exec.ProjectItem{E: sel.E, As: sel.As, Kind: o.inferKind(sel.E)}
		}
		cur = &plan.Node{
			Op:       plan.OpProject,
			Children: []*plan.Node{cur},
			Items:    items,
			Card:     cur.Card,
			P:        o.params,
			Props:    cur.Props,
		}
	}
	return cur
}

// topKSelectionPlan recognizes the paper's "top-k selection" query class —
// every table contributes a score term and all join predicates form a single
// equivalence class over columns that are unique keys in their tables (the
// inputs rank the same object set) — and builds a Fagin-TA plan for it:
// sorted access via the descending score indexes, random access via the id
// indexes. Returns nil when the query does not qualify or lacks the access
// paths.
func (o *optimizer) topKSelectionPlan() *plan.Node {
	if o.opts.DisableRankAggregate || !o.rankAware() || o.q.K <= 0 {
		return nil
	}
	if len(o.q.Tables) < 2 || len(o.q.Joins) == 0 {
		return nil
	}
	// One equivalence class across all predicates.
	cls, ok := o.equiv.classOf(o.q.Joins[0].L)
	if !ok {
		return nil
	}
	inputs := make([]exec.TAInput, 0, len(o.tables))
	logSum := 0.0
	for _, ti := range o.tables {
		if ti.term == nil || !ti.termIsCol || len(ti.filters) > 0 {
			return nil
		}
		logSum += math.Log(ti.card)
		// Find this table's join column; it must be unique and in cls.
		var idCol string
		for _, j := range o.joins {
			for _, c := range []expr.ColRef{j.L, j.R} {
				if c.Table == ti.name {
					if c2, _ := o.equiv.classOf(c); c2 != cls {
						return nil // more than one join class
					}
					if idCol != "" && idCol != c.Name {
						return nil
					}
					idCol = c.Name
				}
			}
		}
		if idCol == "" {
			return nil
		}
		cs := o.cat.ColStats(ti.name, idCol)
		tab, err := o.cat.Table(ti.name)
		if err != nil || cs.Distinct != tab.Stats.Card {
			return nil // not a unique key: objects repeat, TA semantics break
		}
		scoreIdx := o.cat.IndexOn(ti.name, ti.termCol.Name)
		idIdx := o.cat.IndexOn(ti.name, idCol)
		if scoreIdx == nil || idIdx == nil {
			return nil
		}
		scorePos, err := tab.Rel.Schema().Resolve(ti.name, ti.termCol.Name)
		if err != nil {
			return nil
		}
		idPos, err := tab.Rel.Schema().Resolve(ti.name, idCol)
		if err != nil {
			return nil
		}
		inputs = append(inputs, exec.TAInput{
			Rel:      tab.Rel,
			ScoreIdx: scoreIdx,
			IDIdx:    idIdx,
			ScorePos: scorePos,
			IDPos:    idPos,
			Weight:   ti.term.Weight,
		})
	}
	// TA's objects: the geometric mean of its lists' lengths.
	baseN := math.Exp(logSum / float64(len(inputs)))
	return &plan.Node{
		Op:       plan.OpRankAgg,
		TAInputs: inputs,
		K:        o.q.K,
		Card:     math.Min(float64(o.q.K), baseN),
		BaseN:    baseN,
		P:        o.params,
		Props:    plan.Props{Order: o.entry(o.fullMask()).order},
	}
}

// bestAggregation completes a grouped query: every retained join plan can
// feed either a (blocking) hash aggregate or a streaming sorted aggregate —
// naturally when the plan already delivers the group order, otherwise
// through a glued sort. The group-by columns were registered as interesting
// orders, so index-ordered plans survive enumeration for exactly this step.
func (o *optimizer) bestAggregation(plans []*plan.Node) (*plan.Node, error) {
	aggs := make([]exec.AggSpec, len(o.q.Aggs))
	for i, a := range o.q.Aggs {
		fn, ok := exec.ParseAggFunc(a.Func)
		if !ok {
			return nil, fmt.Errorf("core: unknown aggregate %q", a.Func)
		}
		aggs[i] = exec.AggSpec{Func: fn, Arg: a.Arg, As: a.As}
	}
	groups := o.groupCard(plans[0].Card)
	kEval := groups
	if o.q.K > 0 {
		kEval = math.Min(float64(o.q.K), groups)
	}

	var best *plan.Node
	bestCost := math.Inf(1)
	consider := func(n *plan.Node) {
		if c := n.Cost(kEval); c < bestCost {
			bestCost = c
			best = n
		}
	}
	groupOrder := o.intern(plan.ColOrder(o.q.GroupBy[0], false))
	sortKeys := make([]exec.SortKey, len(o.q.GroupBy))
	for i, g := range o.q.GroupBy {
		sortKeys[i] = exec.SortKey{E: g}
	}
	for _, p := range plans {
		consider(&plan.Node{
			Op:       plan.OpHashAgg,
			Children: []*plan.Node{p},
			GroupBy:  o.q.GroupBy,
			Aggs:     aggs,
			Card:     groups,
			P:        o.params,
			Props:    plan.Props{Order: plan.NoOrder},
		})
		in := p
		// A single group column ordered ascending streams directly; multi
		// column grouping (or unordered plans) takes a sort enforcer.
		if len(o.q.GroupBy) > 1 || !o.ordered(p, groupOrder) {
			in = o.sortWrap(p, sortKeys, groupOrder.prop)
		}
		consider(&plan.Node{
			Op:       plan.OpSortAgg,
			Children: []*plan.Node{in},
			GroupBy:  o.q.GroupBy,
			Aggs:     aggs,
			Card:     groups,
			P:        o.params,
			Props:    plan.Props{Order: groupOrder.prop, Pipelined: in.Props.Pipelined},
		})
	}
	if best == nil {
		return nil, fmt.Errorf("core: no aggregation plan")
	}
	return best, nil
}

// groupCard estimates the number of groups: the product of the group
// columns' distinct counts, capped by the join output cardinality.
func (o *optimizer) groupCard(joinCard float64) float64 {
	d := 1.0
	for _, g := range o.q.GroupBy {
		if cs := o.cat.ColStats(g.Table, g.Name); cs.Distinct > 0 {
			d *= float64(cs.Distinct)
		} else {
			d *= 100
		}
	}
	if joinCard < d {
		return math.Max(joinCard, 1)
	}
	return d
}

// inferKind guesses the output kind of a projection expression for schema
// display: literals know their kind; catalog columns are looked up; the
// rank() counter is integral; everything else (arithmetic, scores) is a
// double.
func (o *optimizer) inferKind(e expr.Expr) relation.Kind {
	switch v := e.(type) {
	case expr.Const:
		return v.V.Kind()
	case expr.ColRef:
		if v.Name == "rank" {
			return relation.KindInt
		}
		if ti, ok := o.byName[v.Table]; ok {
			tab, err := o.cat.Table(ti.name)
			if err == nil {
				if i, err := tab.Rel.Schema().Resolve(v.Table, v.Name); err == nil {
					return tab.Rel.Schema().Column(i).Kind
				}
			}
		}
		return relation.KindFloat
	default:
		return relation.KindFloat
	}
}

// Package core implements the paper's contribution: a rank-aware query
// optimizer extending System R bottom-up dynamic programming. Ranking
// expressions are treated as interesting physical properties (Section 3.1),
// the enumeration space is enlarged with rank-join plan alternatives —
// natural via ordered access paths or enforced via glued sorts (Section
// 3.2) — and pruning compares k-parameterized rank-join plan costs against
// blocking sort plans using the crossover point k* while protecting
// pipelined plans (Section 3.3). Rank-join costing delegates to the
// Section 4 depth model through package plan.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rankopt/internal/catalog"
	"rankopt/internal/costmodel"
	"rankopt/internal/estimate"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
)

// PlannerMode selects the join-order planning strategy.
type PlannerMode uint8

const (
	// PlannerDP is the paper's System-R bottom-up dynamic programming over
	// every connected table subset (the default).
	PlannerDP PlannerMode = iota
	// PlannerGreedy skips the memo entirely: joins are ordered greedily by
	// visible selectivity and join-graph connectivity, emitting one left-deep
	// plan in microseconds. Shapes greedy cannot order confidently (grouped
	// queries, traced sessions, plan-space collection) fall back to the DP;
	// Result.GreedyFallback reports when that happened.
	PlannerGreedy
)

// String renders the mode the way the -planner flag spells it.
func (m PlannerMode) String() string {
	if m == PlannerGreedy {
		return "greedy"
	}
	return "dp"
}

// ParsePlannerMode parses a -planner flag value ("", "dp", "greedy").
func ParsePlannerMode(s string) (PlannerMode, error) {
	switch s {
	case "", "dp":
		return PlannerDP, nil
	case "greedy":
		return PlannerGreedy, nil
	}
	return PlannerDP, fmt.Errorf("core: unknown planner mode %q (want dp or greedy)", s)
}

// Options controls the optimizer. The Disable* switches exist for the
// ablation experiments; production use keeps the zero value (everything on).
type Options struct {
	// DisableRankAware turns off interesting order expressions and
	// rank-join generation entirely — the traditional System R baseline.
	DisableRankAware bool
	// DisableHRJN / DisableNRJN remove individual rank-join choices.
	DisableHRJN bool
	DisableNRJN bool
	// DisableAnyK removes the any-k ranked-enumeration alternative (the
	// Lawler-style path enumerator over unordered inputs).
	DisableAnyK bool
	// DisablePipelineProtection lets blocking plans prune pipelined plans
	// on cost alone, removing the First-N-Rows property.
	DisablePipelineProtection bool
	// DisableEnforcedRankInputs stops gluing sort operators to create
	// ranked rank-join inputs, keeping only "natural" ordered access paths.
	DisableEnforcedRankInputs bool
	// KeepAllPlans disables pruning entirely, retaining every generated
	// plan. Exponentially expensive — exists to validate that pruning never
	// discards the optimal plan (tests and ablations only).
	KeepAllPlans bool
	// DisableRankAggregate removes the TA-based top-k-selection plan
	// alternative (generated when every table is ranked and joined on one
	// unique-key equivalence class).
	DisableRankAggregate bool
	// UseTopKSort replaces the final full-sort enforcer with a bounded-heap
	// top-k sort when the query carries a LIMIT — the modern competitor to
	// rank-join plans (off by default to stay faithful to the paper's sort
	// plans; an ablation experiment measures the difference).
	UseTopKSort bool
	// CollectAllPlans returns every completed full-query alternative in
	// Result.AllPlans (each with the shared Rank/Limit/Project tail), the
	// input to the differential-testing oracle. Combine with KeepAllPlans to
	// exercise plans pruning would normally discard.
	CollectAllPlans bool
	// Params overrides the cost-model parameters (nil means defaults).
	Params *costmodel.Params
	// Tracer, when non-nil, observes every enumeration and pruning decision
	// (see tracer.go), in the enumeration's deterministic order.
	Tracer Tracer
	// Planner selects the join-order strategy: the System-R DP (default) or
	// the greedy fast path (see PlannerGreedy).
	Planner PlannerMode
	// DepthHints carries empirically observed rank-join depths keyed by
	// plan.DepthHintKey (sorted left tables + "|" + sorted right tables).
	// When a rank join is built over a keyed table split, the hint overrides
	// the Section-4 uniform-score depth estimate — the feedback loop's way of
	// re-optimizing with measured depths instead of the model.
	DepthHints map[string]estimate.Observed
}

// Result is the optimizer output.
type Result struct {
	// Best is the chosen complete plan, including any final sort enforcer,
	// rank annotation, limit, and projection.
	Best *plan.Node
	// BestJoin is the underlying join plan before final assembly.
	BestJoin *plan.Node
	// AllPlans holds every completed full-query alternative (only when
	// Options.CollectAllPlans is set). Each is executable via plan.Compile
	// and must produce the same top-k answer as Best.
	AllPlans []*plan.Node
	// Memo maps entry labels (e.g. "A,B") to the retained plans, mirroring
	// the paper's Figures 2 and 3.
	Memo map[string][]*plan.Node
	// PlansKept is the total number of plans retained across MEMO entries.
	PlansKept int
	// PlansGenerated counts every candidate considered before pruning.
	PlansGenerated int
	// PlansPruned counts plans the Section 3.3 property+cost domination
	// discarded (rejected candidates plus evicted incumbents).
	PlansPruned int
	// PlansProtected counts pipelined plans that survived a cheaper blocking
	// rival only through the First-N-Rows protection.
	PlansProtected int
	// Planner is the strategy that actually produced Best (greedy requests
	// that fell back report PlannerDP here).
	Planner PlannerMode
	// GreedyFallback is set when PlannerGreedy was requested but the query
	// shape forced the DP path; GreedyFallbackReason then names why (one of
	// the GreedyFallback* constants).
	GreedyFallback       bool
	GreedyFallbackReason string
}

// InterestingOrder is one row of the paper's Table 1.
type InterestingOrder struct {
	Expr    string
	Reasons []string
}

// tableInfo caches per-table planning facts.
type tableInfo struct {
	idx     int
	name    string
	rawCard float64
	card    float64 // after filters
	filtSel float64
	filters []expr.Expr
	// term is the table's ranking score term (nil when unranked).
	term *expr.ScoreTerm
	// termSlab is the average decrement slab of the weighted term over the
	// filtered relation.
	termSlab float64
	// termCol is set when the term's expression is a bare column (only then
	// can an index provide the ranked order naturally).
	termCol   expr.ColRef
	termIsCol bool
}

// optimizer carries the DP state.
type optimizer struct {
	cat    *catalog.Catalog
	q      *logical.Query
	opts   Options
	params *costmodel.Params
	tables []*tableInfo
	byName map[string]*tableInfo
	// termBit[i] is the table bit of o.q.Score.Terms[i] (0 when the term
	// references no single query table), so a subset's partial score is a
	// mask test per term.
	termBit []uint64
	// entries holds every table subset's facts, indexed by mask (see
	// entry.go). The DP fills it before enumeration starts and only reads it
	// afterwards; it stays nil on the greedy path, whose O(n) subsets are
	// derived on demand by the same constructor.
	entries []entryInfo
	// memo holds the retained plans of every subset, indexed by mask.
	memo [][]memoPlan
	// acc accumulates the MEMO entry being enumerated (see maskAcc).
	acc maskAcc
	// orders holds the interned order properties; id i+1 is orders[i].
	orders []plan.OrderProp
	pc     pruneCounters
	kmin   float64
	// equiv groups join columns into equivalence classes; joins holds the
	// transitive closure of the query's join predicates.
	equiv *equivClasses
	joins []joinInfo
}

// newOptimizer validates nothing and plans nothing: it derives the per-table
// facts, the join-predicate closure and the cost parameters every planner
// path starts from.
func newOptimizer(cat *catalog.Catalog, q *logical.Query, opts Options) (*optimizer, error) {
	p := opts.Params
	if p == nil {
		def := costmodel.Default()
		p = &def
	}
	o := &optimizer{
		cat:    cat,
		q:      q,
		opts:   opts,
		params: p,
		byName: map[string]*tableInfo{},
	}
	if q.K > 0 {
		o.kmin = float64(q.K)
	}
	if err := o.buildTableInfo(); err != nil {
		return nil, err
	}
	o.equiv = newEquivClasses(q.Joins)
	o.joins = o.joinInfos(o.equiv.closure(q.Joins))
	return o, nil
}

// Optimize plans the query against the catalog.
func Optimize(cat *catalog.Catalog, q *logical.Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	o, err := newOptimizer(cat, q, opts)
	if err != nil {
		return nil, err
	}

	planner := PlannerDP
	fallback := false
	fallbackReason := ""
	var best, bestJoin *plan.Node
	var all []*plan.Node
	if opts.Planner == PlannerGreedy {
		if g, reason := o.greedyPlan(); g != nil {
			planner = PlannerGreedy
			best, bestJoin, all, err = o.finish([]*plan.Node{g})
		} else {
			fallback = true
			fallbackReason = reason
		}
	}
	if planner == PlannerDP {
		o.runDP()
		o.traceMemoState()
		best, bestJoin, all, err = o.finish(planNodes(o.memo[o.fullMask()]))
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		Best:                 best,
		BestJoin:             bestJoin,
		AllPlans:             all,
		Memo:                 map[string][]*plan.Node{},
		PlansGenerated:       o.pc.gen,
		PlansPruned:          o.pc.pruned + o.pc.evicted,
		PlansProtected:       o.pc.protected,
		Planner:              planner,
		GreedyFallback:       fallback,
		GreedyFallbackReason: fallbackReason,
	}
	for mask, plans := range o.memo {
		if len(plans) > 0 {
			res.Memo[o.entries[mask].label] = planNodes(plans)
			res.PlansKept += len(plans)
		}
	}
	return res, nil
}

// runDP is the System-R enumeration: per-subset facts first (read-only from
// here on), then the base access paths, then the join levels.
func (o *optimizer) runDP() {
	o.buildEntries()
	o.memo = make([][]memoPlan, len(o.entries))
	o.enumerateBase()
	o.enumerateJoins()
}

// traceMemoState emits the post-enumeration snapshot to the tracer: the
// query's interesting order expressions (Table 1) and every plan each MEMO
// entry retained, in deterministic (level, label) order.
func (o *optimizer) traceMemoState() {
	tr := o.opts.Tracer
	if tr == nil {
		return
	}
	for _, io := range o.interestingOrders() {
		tr.OnDecision(Decision{
			Kind: DecisionInterestingOrder,
			Plan: io.Expr,
			Note: strings.Join(io.Reasons, "; "),
		})
	}
	var masks []uint64
	for mask, plans := range o.memo {
		if len(plans) > 0 {
			masks = append(masks, uint64(mask))
		}
	}
	sort.Slice(masks, func(i, j int) bool {
		ei, ej := &o.entries[masks[i]], &o.entries[masks[j]]
		if ei.level != ej.level {
			return ei.level < ej.level
		}
		return ei.label < ej.label
	})
	for _, mask := range masks {
		e := &o.entries[mask]
		for _, p := range o.memo[mask] {
			tr.OnDecision(Decision{
				Kind:  DecisionKept,
				Level: e.level,
				Entry: e.label,
				Plan:  plan.Summary(p.n),
				Note:  fmt.Sprintf("props %s; cost %.1f at full output", propsNote(p.n), p.n.TotalCost()),
			})
		}
	}
}

func (o *optimizer) buildTableInfo() error {
	for i, name := range o.q.Tables {
		tab, err := o.cat.Table(name)
		if err != nil {
			return err
		}
		ti := &tableInfo{
			idx:     i,
			name:    name,
			rawCard: float64(tab.Stats.Card),
			filtSel: 1,
			filters: o.q.FiltersFor(name),
		}
		for _, f := range ti.filters {
			ti.filtSel *= o.cat.FilterSelectivity(f)
		}
		ti.card = math.Max(ti.rawCard*ti.filtSel, 1)
		for ix := range o.q.Score.Terms {
			t := &o.q.Score.Terms[ix]
			if t.Table() == name {
				ti.term = t
				if c, ok := t.E.(expr.ColRef); ok {
					ti.termCol = c
					ti.termIsCol = true
					cs := o.cat.ColStats(name, c.Name)
					if cs.Slab > 0 {
						// Filtering thins the relation, widening the slab.
						ti.termSlab = t.Weight * cs.Slab / ti.filtSel
					}
				}
				if ti.termSlab == 0 {
					// Fallback: pretend unit range over the filtered card.
					ti.termSlab = t.Weight / ti.card
				}
				break
			}
		}
		o.tables = append(o.tables, ti)
		o.byName[name] = ti
	}
	o.termBit = make([]uint64, len(o.q.Score.Terms))
	for ix := range o.q.Score.Terms {
		o.termBit[ix] = o.tableBit(o.q.Score.Terms[ix].Table())
	}
	return nil
}

// rankAware reports whether rank-aware enumeration applies to this query.
func (o *optimizer) rankAware() bool {
	return !o.opts.DisableRankAware && o.q.Ranking()
}

// tableBit returns the mask bit of a query table (0 for an unknown name).
func (o *optimizer) tableBit(name string) uint64 {
	if ti, ok := o.byName[name]; ok {
		return 1 << uint(ti.idx)
	}
	return 0
}

// fullMask covers all query tables.
func (o *optimizer) fullMask() uint64 { return (1 << uint(len(o.tables))) - 1 }

// sortKeysByScore builds the descending sort keys for a partial score.
func sortKeysByScore(s expr.ScoreSum) []exec.SortKey {
	return []exec.SortKey{{E: s, Desc: true}}
}

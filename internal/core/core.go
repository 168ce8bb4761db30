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
	"math/bits"
	"sort"
	"strings"

	"rankopt/internal/catalog"
	"rankopt/internal/costmodel"
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
	// PlannerGreedy fixes the join order first — most constrained table
	// first, then the connected table keeping the intermediate result
	// smallest — and runs the DP's enumeration and pruning on that path's
	// prefixes only: n-1 subsets instead of every connected one.
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
	// Planner selects which table subsets are enumerated: all of them (the
	// System-R DP, default) or one greedy join order's prefixes (see
	// PlannerGreedy).
	Planner PlannerMode
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
	// entries maps a table subset's mask to its facts and retained plans,
	// which live in slab (see entry).
	entries map[uint64]*entryInfo
	slab    []entryInfo
	// acc accumulates the MEMO entry being enumerated (see maskAcc).
	acc maskAcc
	// orders holds the interned orders, a column order under its class's
	// representative column; id i+1 is orders[i].
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
	o.equiv = newEquivClasses(q.Joins)
	closure, implied := o.equiv.closure(q.Joins)
	if err := o.buildTableInfo(implied); err != nil {
		return nil, err
	}
	if err := o.checkColumns(); err != nil {
		return nil, err
	}
	// The DP enumerates every table subset; a greedy path has one entry per
	// table and one per longer prefix.
	n := len(o.tables)
	size := 1<<n - 1
	if opts.Planner == PlannerGreedy {
		size = 2*n - 1
	}
	o.entries = make(map[uint64]*entryInfo, size)
	o.slab = make([]entryInfo, 0, size)
	o.joins = o.joinInfos(closure)
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

	if opts.Planner == PlannerGreedy {
		o.runGreedy()
	} else {
		o.runDP()
	}
	o.traceMemoState()
	best, bestJoin, all, err := o.finish()
	if err != nil {
		return nil, err
	}
	res := &Result{
		Best:           best,
		BestJoin:       bestJoin,
		AllPlans:       all,
		Memo:           map[string][]*plan.Node{},
		PlansGenerated: o.pc.gen,
		PlansPruned:    o.pc.pruned + o.pc.evicted,
		PlansProtected: o.pc.protected,
	}
	for _, e := range o.entries {
		if len(e.plans) > 0 {
			res.Memo[e.label] = planNodes(e.plans)
			res.PlansKept += len(e.plans)
		}
	}
	return res, nil
}

// runDP is the System-R enumeration: the base access paths, then every
// subset of two or more tables, level by level, split every way.
func (o *optimizer) runDP() {
	o.enumerateBase()
	full := o.fullMask()
	masks := make([]uint64, 0, int(full)-len(o.tables))
	for size := 2; size <= len(o.tables); size++ {
		for mask := uint64(1); mask <= full; mask++ {
			if bits.OnesCount64(mask) == size {
				masks = append(masks, mask)
			}
		}
	}
	o.enumerateJoins(masks, allSubs)
}

// allSubs appends the left side of every ordered split of mask to subs.
func allSubs(subs []uint64, mask uint64) []uint64 {
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		subs = append(subs, sub)
	}
	return subs
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
	var kept []*entryInfo
	for _, e := range o.entries {
		if len(e.plans) > 0 {
			kept = append(kept, e)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].level != kept[j].level {
			return kept[i].level < kept[j].level
		}
		return kept[i].label < kept[j].label
	})
	for _, e := range kept {
		for _, p := range e.plans {
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

// buildTableInfo derives the per-table facts. A table's filters are the
// query's own plus the implied same-table equalities over its columns: no
// join applies those, so only as filters do every access path and the
// table's cardinality see them.
func (o *optimizer) buildTableInfo(implied []logical.JoinPred) error {
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
		for _, p := range implied {
			if p.L.Table == name && !hasEquality(ti.filters, p.L, p.R) {
				ti.filters = append(ti.filters, expr.Bin(expr.OpEq, p.L, p.R))
			}
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

// hasEquality reports whether filters state a = b, either way round.
func hasEquality(filters []expr.Expr, a, b expr.ColRef) bool {
	for _, f := range filters {
		if expr.Equal(f, expr.Bin(expr.OpEq, a, b)) || expr.Equal(f, expr.Bin(expr.OpEq, b, a)) {
			return true
		}
	}
	return false
}

// checkColumns rejects a query naming a column its table's catalog schema
// lacks, so a query that cannot execute fails here rather than being
// planned, cached and failing at every execution. An unqualified name must
// belong to some query table; SELECT's rank output column is no table's.
func (o *optimizer) checkColumns() error {
	q := o.q
	var cols []expr.ColRef
	for _, j := range q.Joins {
		cols = append(cols, j.L, j.R)
	}
	for _, f := range q.Filters {
		cols = f.AddColumns(cols)
	}
	cols = q.Score.AddColumns(cols)
	cols = append(cols, q.GroupBy...)
	for _, a := range q.Aggs {
		if a.Arg != nil {
			cols = a.Arg.AddColumns(cols)
		}
	}
	if q.OrderBy.Name != "" {
		cols = append(cols, q.OrderBy)
	}
	for _, it := range q.Select {
		if c, ok := it.E.(expr.ColRef); ok && c == expr.Col("", "rank") {
			continue
		}
		cols = it.E.AddColumns(cols)
	}
	for _, c := range cols {
		if !o.hasColumn(c) {
			return fmt.Errorf("core: unknown column %s", c)
		}
	}
	return nil
}

// hasColumn reports whether a query table named by c (any of them when c is
// unqualified) has the column in its catalog schema.
func (o *optimizer) hasColumn(c expr.ColRef) bool {
	for _, ti := range o.tables {
		if c.Table != "" && c.Table != ti.name {
			continue
		}
		if tab, err := o.cat.Table(ti.name); err == nil {
			if _, err := tab.Rel.Schema().Resolve("", c.Name); err == nil {
				return true
			}
		}
	}
	return false
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

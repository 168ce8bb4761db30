// Package engine is the concurrent query-serving layer: independent
// top-k query sessions (parse → optimize → compile → execute) run in
// goroutine workers against one shared catalog. The ranked-enumeration
// serving workload — many small-k queries over the same data — is exactly
// the shape this layer unlocks.
//
// Concurrency model: the catalog (relations, indexes, statistics) is
// treated as immutable once an Engine is constructed over it; sessions only
// read it, so they need no locks. Everything mutable — the optimizer's
// MEMO, rank-join stats — is private to one session, except the plan cache,
// which is sharded and internally synchronized. A compiled operator tree
// belongs to its cached template and is lent to one session at a time.
//
// The plan cache sits between parsing and optimization: a session whose
// query text was seen before skips both; a session whose canonical
// fingerprint (see sqlparse.Fingerprint — the top-k bound is parameterized
// out) matches a cached template skips optimization, and a plain one also
// skips compilation: it borrows one of the template's compiled operator
// trees, arms it with its own k and limits, and hands it back after Close.
// Catalog statistics changes (RefreshStats, AddTable, CreateIndex, ...)
// bump the catalog's stats epoch, which lazily invalidates every cached
// plan built under the old statistics.
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/relation"
	"rankopt/internal/sqlparse"
	"rankopt/internal/trace"
)

// Engine serves query sessions against a shared, read-only catalog.
// It is safe for concurrent use by multiple goroutines as long as nobody
// mutates the catalog (AddTable, CreateIndex, RefreshStats, heap writes)
// while sessions run.
type Engine struct {
	cat  *catalog.Catalog
	opts core.Options
	// cache is the sharded plan cache; nil when disabled by Config.
	cache *planCache
	// met aggregates every session into engine-wide counters (see metrics.go).
	met metrics
	// adm bounds in-flight sessions; nil when admission control is off.
	adm *admission
	// defLimits are the per-session resource limits applied when a request
	// carries none of its own.
	defLimits exec.ResourceLimits
	// logger receives structured engine logs; slowQuery is the slow-query
	// threshold (0 disables the slow-query log entirely).
	logger    *slog.Logger
	slowQuery time.Duration
	// shards are the per-shard catalogs of the scatter-gather tier (see
	// shard.go); empty when Config.Shards is 0 or construction failed
	// (shardErr records why). shardWidth caps concurrently running shards.
	shards     []*catalog.Catalog
	shardWidth int
	shardErr   error
	// reg is the live query registry (see registry.go): every session gets
	// an ID, a queued→planning→executing→merging→done/aborted state machine,
	// rank-aware progress, and cancel-by-id. Always on; the per-session cost
	// is one small allocation plus a handful of atomic stores.
	reg queryRegistry
}

// Config controls engine construction beyond the per-session optimizer
// options.
type Config struct {
	// Options apply to every session's optimizer run.
	Options core.Options
	// DisablePlanCache turns the plan cache off: every session runs the
	// full parse+optimize pipeline. Useful for cold-path benchmarks and for
	// cached-vs-uncached identity tests.
	DisablePlanCache bool
	// MaxConcurrent bounds the sessions executing simultaneously; further
	// submissions wait in an admission queue. 0 means unbounded (no
	// admission control and no queueing overhead).
	MaxConcurrent int
	// AdmissionTimeout bounds how long a session may wait for an execution
	// slot before failing with ErrAdmissionTimeout. 0 waits indefinitely
	// (until the query's own deadline, if any). Ignored when MaxConcurrent
	// is 0.
	AdmissionTimeout time.Duration
	// DefaultLimits apply to every request that does not set Request.Limits.
	DefaultLimits exec.ResourceLimits
	// SlowQuery, when positive, logs every session at least this slow to
	// Logger: SQL, latency, plan fingerprint, cache hit, row count, rank-join
	// depths, and the abort cause for failed sessions.
	SlowQuery time.Duration
	// Logger receives the structured engine logs. nil falls back to
	// slog.Default() when SlowQuery is set.
	Logger *slog.Logger
	// Shards, when positive, builds the sharded scatter-gather tier over the
	// catalog: every table is partitioned into this many shards (each table
	// needs a catalog.PartitionSpec) and qualifying top-k sessions run one
	// pipeline per shard under a rank-aware early-stop coordinator. 1 is the
	// degenerate single-shard tier (useful as a baseline); 0 disables
	// sharding entirely. Construction failures (e.g. a table without a
	// partition spec) disable the tier and are reported by ShardError.
	Shards int
	// ShardWidth caps how many shard pipelines of one session run
	// concurrently; 0 means GOMAXPROCS. Pending shards start in descending
	// order of their a-priori score ceiling and may be pruned without ever
	// starting.
	ShardWidth int
}

// New constructs an engine over a loaded catalog with the plan cache
// enabled. The options apply to every session; they are copied, so later
// mutation of the caller's value has no effect.
func New(cat *catalog.Catalog, opts core.Options) *Engine {
	return NewWithConfig(cat, Config{Options: opts})
}

// NewWithConfig constructs an engine with explicit configuration.
func NewWithConfig(cat *catalog.Catalog, cfg Config) *Engine {
	e := &Engine{cat: cat, opts: cfg.Options, defLimits: cfg.DefaultLimits,
		logger: cfg.Logger, slowQuery: cfg.SlowQuery}
	if e.logger == nil && e.slowQuery > 0 {
		e.logger = slog.Default()
	}
	if !cfg.DisablePlanCache {
		e.cache = newPlanCache()
	}
	if cfg.MaxConcurrent > 0 {
		e.adm = newAdmission(cfg.MaxConcurrent, cfg.AdmissionTimeout)
	}
	if cfg.Shards > 0 {
		shards, err := cat.Shard(cfg.Shards)
		if err != nil {
			e.shardErr = fmt.Errorf("engine: sharding disabled: %w", err)
		} else {
			e.shards = shards
			e.shardWidth = cfg.ShardWidth
		}
	}
	return e
}

// CacheStats snapshots the plan cache's hit/miss/invalidation counters and
// entry count. All zeros when the cache is disabled.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// Request is one query session's input.
type Request struct {
	// ID labels the session in its Response (useful when fanning out).
	ID string
	// SQL is the top-k query text.
	SQL string
	// ExplainOnly stops the session after planning: the Response carries
	// the plan (and cache/optimizer counters) but no tuples.
	ExplainOnly bool
	// Analyze compiles the plan with per-operator stats collectors (EXPLAIN
	// ANALYZE): the Response additionally carries an AnalyzedPlan mapping
	// every plan node to its measured tuple counts, depths, and sampled wall
	// times, renderable with plan.FormatAnalyze.
	Analyze bool
	// Deadline, when non-zero, bounds the session's total wall time —
	// admission wait included, so a query queued behind slow traffic times
	// out exactly when a running one would. Expiry surfaces as
	// exec.ErrDeadlineExceeded.
	Deadline time.Time
	// Limits are the session's resource limits (deadline, buffered-tuple
	// budget, per-input depth cap). The zero value applies the engine's
	// Config.DefaultLimits; a non-zero value replaces them entirely.
	Limits exec.ResourceLimits
	// Trace, when non-nil, records the session's pipeline spans (parse →
	// fingerprint → plan-cache → optimize → compile → execute, with nested
	// per-operator spans synthesized from the runtime stats) into the given
	// recorder, and attaches an optimizer decision tracer: the session runs a
	// fresh optimization so Response.OptTrace carries a deterministic pruning
	// explanation even when the plan cache would have hit. A nil Trace costs
	// exactly one nil compare per stage.
	Trace *trace.Trace
}

// RankJoinStat pairs one rank-join operator of the executed plan with its
// measured depths and ranking-buffer high-water mark.
type RankJoinStat struct {
	// Op is the operator name (HRJN or NRJN).
	Op string
	// Pred labels the join: the primary equi-predicate when one exists,
	// otherwise the residual predicate (NRJN accepts arbitrary predicates).
	Pred string
	// Stats are the measured depths and buffer size.
	Stats exec.RankJoinStats
	// EstDL and EstDR are the input depths the optimizer's cost charges
	// this join at the session's k (plan.Node.Local): the Section-4 model's
	// for an HRJN, the one-sided outer depth and the whole inner for an
	// NRJN. They are shown next to the measured depths.
	EstDL, EstDR float64
	// EstQueue is the ranking-queue size the same cost charges at that
	// demand (plan.Local.Queue), shown next to Stats.MaxQueue.
	EstQueue float64
}

// Response is one query session's complete outcome. Err is set (and the
// result fields empty) when any stage of the session failed.
type Response struct {
	ID  string
	SQL string
	// Columns are the qualified output column names.
	Columns []string
	// Tuples is the full result set in output order.
	Tuples []relation.Tuple
	// Plan is the session's physical plan; render it with plan.Explain. On
	// a plain session it is the cached template's shared plan, which every
	// session of the template reads: callers must not modify it, and its
	// Limit/TopK bounds are the template's k, not necessarily this session's.
	// ExplainOnly, Analyze and traced sessions get a private copy rebound to
	// their k.
	Plan *plan.Node
	// K is the session's top-k bound (0 = unbounded).
	K int
	// CacheHit reports whether the plan came from the plan cache (at either
	// the text or the fingerprint level) rather than a fresh optimizer run.
	CacheHit bool
	// Fingerprint is the query's canonical plan-cache fingerprint (the top-k
	// bound parameterized out); empty when parsing failed or a text-level
	// cache hit skipped fingerprinting.
	Fingerprint string
	// PlansGenerated, PlansKept, PlansPruned, and PlansProtected report the
	// optimizer's enumeration and pruning work. On a cache hit they replay
	// the counters of the run that built the cached template.
	PlansGenerated int
	PlansKept      int
	PlansPruned    int
	PlansProtected int
	// RankJoins holds the measured stats of every rank-join in the plan.
	RankJoins []RankJoinStat
	// Analysis maps plan nodes to their runtime operator stats; set for
	// Analyze and traced sessions. Render with
	// plan.FormatAnalyze(resp.Plan, resp.Analysis).
	Analysis *plan.AnalyzedPlan
	// Sharded reports that the session ran on the scatter-gather tier;
	// ShardStats then carries the coordinator's counters (shards started,
	// pruned, early-stopped, tuples pulled and saved) including the
	// per-shard ceiling/bound/cause rows.
	Sharded    bool
	ShardStats *exec.ShardMergeStats
	// ShardAnalysis is the sharded session's EXPLAIN ANALYZE: the merge
	// stats plus every shard's analyzed pipeline. Set for Analyze and traced
	// sessions that ran sharded; render with plan.FormatShardedAnalyze.
	ShardAnalysis *plan.ShardedAnalysis
	// OptTrace is the optimizer decision trace of a traced session (see
	// Request.Trace); render with OptTrace.Format().
	OptTrace *core.DecisionTrace
	// Elapsed is the wall time of the whole session.
	Elapsed time.Duration
	Err     error
}

// rankJoinPredLabel names a rank-join for stats display without assuming an
// equi-predicate exists (an NRJN can join on a residual-only predicate).
func rankJoinPredLabel(n *plan.Node) string {
	if len(n.EqPreds) > 0 {
		return n.EqPreds[0].String()
	}
	if n.Pred != nil {
		return n.Pred.String()
	}
	return "<no predicate>"
}

// planInfo is one session's planning outcome: the template, the plan the
// session runs, and the provenance the Response reports.
type planInfo struct {
	tmpl *plan.Template
	// root is the template's shared plan, or the session's private
	// instantiation once run made one.
	root     *plan.Node
	hit      bool
	fp       string
	counters plan.PlanCounters
	// k is the session's top-k bound (0 = unbounded). Every consumer of the
	// session's k reads it here: the shared plan carries the template's.
	k int
}

// countersOf packs an optimizer result's enumeration tallies.
func countersOf(res *core.Result) plan.PlanCounters {
	return plan.PlanCounters{
		Generated: res.PlansGenerated,
		Kept:      res.PlansKept,
		Pruned:    res.PlansPruned,
		Protected: res.PlansProtected,
	}
}

// planFor is the one planner path behind every session: it produces the
// template for the SQL text, consulting the plan cache (a nil cache misses
// every lookup and drops every store), so a session behaves identically with
// the cache on or off. The returned root is the template's shared plan. Under
// a span recorder each stage gets a span and the optimizer runs fresh —
// single worker, decision tracer attached — so the returned DecisionTrace is
// complete and deterministic even when the plan cache holds the query; the
// fresh template still lands in the cache.
func (e *Engine) planFor(tr *trace.Trace, sql string) (planInfo, *core.DecisionTrace, error) {
	epoch := e.cat.StatsEpoch()
	// Level 1: exact query text — skips lexing and parsing. A traced session
	// only records what the cache would have done.
	ls := -1
	if e.cache != nil {
		ls = tr.Begin("plan-cache", "pipeline")
	}
	wouldHit := false
	if fp, qk, ok := e.cache.lookupText(sql, epoch); ok {
		if tmpl, ok := e.cache.lookupPlan(fp, epoch); ok {
			if tr == nil {
				e.cache.hits.Add(1)
				return planInfo{tmpl: tmpl, root: tmpl.Root(), hit: true, fp: fp, counters: tmpl.Counters, k: qk}, nil, nil
			}
			wouldHit = true
		}
	}
	tr.Annotate(ls, "would_hit", strconv.FormatBool(wouldHit))
	tr.End(ls)
	ps := tr.Begin("parse", "pipeline")
	q, err := sqlparse.Parse(sql)
	tr.End(ps)
	if err != nil {
		return planInfo{}, nil, fmt.Errorf("engine: parse: %w", err)
	}
	fs := tr.Begin("fingerprint", "pipeline")
	fp := sqlparse.Fingerprint(q)
	tr.End(fs)
	e.cache.storeText(sql, fp, q.K, epoch)
	opts := e.opts
	var dt *core.DecisionTrace
	if tr != nil {
		dt = core.NewDecisionTrace()
		opts.Tracer = dt
	} else if tmpl, ok := e.cache.lookupPlan(fp, epoch); ok {
		// Level 2: canonical fingerprint — skips optimization.
		e.cache.hits.Add(1)
		return planInfo{tmpl: tmpl, root: tmpl.Root(), hit: true, fp: fp, counters: tmpl.Counters, k: q.K}, nil, nil
	} else {
		e.cache.miss()
	}
	os := tr.Begin("optimize", "pipeline")
	res, err := core.Optimize(e.cat, q, opts)
	if err != nil {
		tr.End(os)
		return planInfo{}, nil, fmt.Errorf("engine: optimize: %w", err)
	}
	counters := countersOf(res)
	tr.AnnotateInt(os, "plans_generated", int64(counters.Generated))
	tr.AnnotateInt(os, "plans_kept", int64(counters.Kept))
	tr.AnnotateInt(os, "plans_pruned", int64(counters.Pruned))
	tr.AnnotateInt(os, "plans_protected", int64(counters.Protected))
	tr.End(os)
	e.met.observeOptimize(counters)
	tmpl := plan.NewTemplate(res.Best, q.K, counters)
	e.cache.storePlan(fp, tmpl, epoch)
	return planInfo{tmpl: tmpl, root: tmpl.Root(), fp: fp, counters: counters, k: q.K}, dt, nil
}

// Run executes one complete query session and never panics on malformed
// input: all failures surface in Response.Err. Every session — successful,
// failed, or explain-only — is folded into the engine-wide metrics.
func (e *Engine) Run(req Request) Response {
	return e.RunCtx(context.Background(), req)
}

// RunCtx executes one complete query session under the caller's context:
// cancelling ctx aborts the session mid-execution with the whole operator
// tree closed and exec.ErrQueryCancelled in Response.Err. The request's
// deadline (and the limits' deadline) tightens ctx BEFORE admission, so a
// session queued behind slow traffic expires exactly when a running one
// would.
func (e *Engine) RunCtx(ctx context.Context, req Request) Response {
	limits := req.Limits
	if !limits.Enabled() {
		limits = e.defLimits
	}
	if !req.Deadline.IsZero() && (limits.Deadline.IsZero() || req.Deadline.Before(limits.Deadline)) {
		limits.Deadline = req.Deadline
	}
	if !limits.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, limits.Deadline)
		defer cancel()
	}
	// Every admitted request gets a registry entry and a cancellable derived
	// context, so /debug/queries can watch it live and cancel-by-id can abort
	// it with exec.ErrQueryCancelled.
	ctx, abort := context.WithCancel(ctx)
	defer abort()
	en := e.reg.register(req.ID, req.SQL, abort)
	start := time.Now()
	var resp Response
	if err := e.admit(ctx); err != nil {
		resp = Response{ID: req.ID, SQL: req.SQL, Err: err, Elapsed: time.Since(start)}
	} else {
		resp = e.run(ctx, req, limits, en)
		e.adm.release()
	}
	e.reg.finish(en, resp.Err)
	e.met.observe(&resp, req.Analyze)
	if req.Trace != nil {
		e.met.traced.Add(1)
	}
	e.logSlow(&resp)
	return resp
}

// admit waits for an execution slot (a no-op when admission control is off).
func (e *Engine) admit(ctx context.Context) error {
	if e.adm == nil {
		return exec.CtxErr(ctx)
	}
	e.met.admissionWaiting.Add(1)
	defer e.met.admissionWaiting.Add(-1)
	return e.adm.acquire(ctx)
}

// run is the session pipeline behind RunCtx; en is the session's live
// registry entry (state transitions and progress land there).
func (e *Engine) run(ctx context.Context, req Request, limits exec.ResourceLimits, en *queryEntry) Response {
	start := time.Now()
	resp := Response{ID: req.ID, SQL: req.SQL}
	tr := req.Trace // nil for untraced sessions: every span call no-ops
	session := tr.Begin("session", "pipeline")
	defer tr.End(session)
	en.setState(QueryPlanning)
	fail := func(err error) Response {
		resp.Err = err
		resp.Elapsed = time.Since(start)
		return resp
	}
	if err := exec.CtxErr(ctx); err != nil {
		return fail(err)
	}
	pi, dt, err := e.planFor(tr, req.SQL)
	if err != nil {
		return fail(err)
	}
	// Analyze (and traced) sessions thread a stats collector between every
	// operator, on either tier; traced sessions synthesize per-operator spans
	// from the collectors. They, and EXPLAIN, print their plan, so they run a
	// private copy rebound to their k through freshly compiled trees; a plain
	// session runs the shared plan through the template's pooled trees.
	collect := req.Analyze || tr != nil
	if collect || req.ExplainOnly {
		is := tr.Begin("instantiate", "pipeline")
		pi.root = pi.tmpl.Instantiate(pi.k)
		tr.End(is)
	}
	resp.OptTrace = dt
	resp.Plan, resp.K = pi.root, pi.k
	en.k.Store(int64(pi.k))
	resp.CacheHit = pi.hit
	resp.Fingerprint = pi.fp
	resp.PlansGenerated = pi.counters.Generated
	resp.PlansKept = pi.counters.Kept
	resp.PlansPruned = pi.counters.Pruned
	resp.PlansProtected = pi.counters.Protected
	root := pi.root
	if req.ExplainOnly {
		resp.Elapsed = time.Since(start)
		return resp
	}
	if root.CountOps(plan.OpAnyK) > 0 {
		e.met.anykPlans.Add(1)
	}
	p := pipelines{collect: collect, tmpl: pi.tmpl, k: pi.k}
	// Sharded tier: qualifying plans run one pipeline per shard under the
	// early-stop coordinator — including Analyze and traced sessions, whose
	// per-shard stats collectors and trace lanes ride the fan-out (the
	// optimizer runs once above; only execution is parallel). Plans the
	// partitioning cannot cover fall back and are counted. The tiers differ
	// only in the root operator and in who counts the emitted tuples: the
	// root drain on the single tier, the coordinator on the sharded one.
	sharded := e.shardable(root, pi.k)
	if len(e.shards) > 0 && !sharded {
		e.met.shardFallbacks.Add(1)
	}
	var (
		op    exec.Operator
		batch *exec.Batch
		merge *exec.ShardMerge
		prog  *exec.Progress
	)
	cs := tr.Begin("compile", "pipeline")
	if sharded {
		en.sharded.Store(true)
		p.budget = exec.NewBudget(limits)
		merge, err = e.shardMerge(root, &p, &en.prog)
		op = merge
		// The drain clears the batch before it returns.
		batch = gatherBatches.Get().(*exec.Batch)
		defer gatherBatches.Put(batch)
	} else {
		var t *plan.Tree
		if t, err = p.tree(e.cat, root, -1); err != nil {
			err = fmt.Errorf("engine: compile: %w", err)
		} else {
			t.Arm(pi.k, limits)
			op, batch, prog = t.Root, t.Batch(), &en.prog
			if p.collect {
				resp.Analysis = p.runs[0].Analysis
			}
		}
	}
	tr.End(cs)
	if err != nil {
		p.release()
		return fail(err)
	}
	en.setState(QueryExecuting)
	es := tr.Begin("execute", "pipeline")
	execStart := time.Now()
	tuples, err := exec.CollectBatch(ctx, op, batch, prog)
	execNanos := time.Since(execStart).Nanoseconds()
	tr.End(es)
	p.gathered()
	if sharded && err == nil {
		// The shard workers were joined before the gather returned, so reading
		// the per-shard operators and coordinator stats here races with nothing.
		st := merge.Stats()
		resp.Sharded, resp.ShardStats = true, &st
		if p.collect {
			resp.ShardAnalysis = &plan.ShardedAnalysis{Stats: st, Shards: p.runs}
		}
		e.met.observeSharded(&st, execNanos)
	}
	// A failed gather has no shard outcomes to lay out.
	if tr != nil && (!sharded || err == nil) {
		addExecSpans(tr, es, execStart, root, &resp, p.runs, len(tuples))
	}
	if err != nil {
		p.release()
		return fail(fmt.Errorf("engine: execute: %w", err))
	}
	resp.Tuples = tuples
	e.finish(&resp, &p)
	p.release()
	resp.Elapsed = time.Since(start)
	return resp
}

// gatherBatches are the batches the sharded tier's gathers drain into, as the
// unsharded tier drains into its tree's own: a session allocates none.
var gatherBatches = sync.Pool{New: func() any { return exec.NewBatch(exec.DefaultBatchSize) }}

// sessionTree is one compiled tree a session ran, with the pipeline it
// belongs to (-1 on the unsharded tier, else its shard).
type sessionTree struct {
	shard int
	tree  *plan.Tree
}

// pipelines is what a session's operator trees — one on the unsharded tier,
// one per started shard on the sharded — leave behind for the
// post-execution report.
type pipelines struct {
	// collect threads a stats collector between every pair of operators.
	// Collecting sessions compile their trees fresh and keep none.
	collect bool
	// tmpl lends and takes back the trees of a plain session (nil: compile
	// fresh and keep none); k is the session's top-k bound.
	tmpl *plan.Template
	k    int
	// budget is the session's shared allowance on the sharded tier, charged
	// by every shard pipeline and the coordinator (an unsharded tree arms its
	// own).
	budget *exec.Budget
	// trees are the trees the session ran, in pipeline order; columns are
	// the output column names they share.
	trees   []sessionTree
	columns []string
	// runs holds every pipeline's analyzed plan when collect is set.
	runs []plan.ShardRun
	// shards are the sharded tier's per-shard slots (see shard.go): each is
	// written only by the goroutine that builds its pipeline, and gathered
	// folds them into the fields above once the gather has joined its workers.
	shards []shardPipeline
}

// gathered folds the per-shard slots into p in ascending shard order, so the
// rank-join report and the shard analysis are deterministic. Call it only
// after the gather returned: its workers are joined by then.
func (p *pipelines) gathered() {
	for i := range p.shards {
		s := &p.shards[i].pipelines
		p.trees = append(p.trees, s.trees...)
		p.runs = append(p.runs, s.runs...)
	}
	p.shards = nil
}

// tree returns a tree for root on cat as pipeline number shard: a pooled one
// of the template when the session is plain and one is free, else a fresh
// compile — of a clone rebound to the shard catalog, on the sharded tier.
func (p *pipelines) tree(cat *catalog.Catalog, root *plan.Node, shard int) (*plan.Tree, error) {
	var t *plan.Tree
	if !p.collect && p.tmpl != nil {
		t = p.tmpl.Take(shard + 1)
	}
	if t == nil {
		if shard >= 0 {
			root = root.Clone()
			if err := plan.Rebind(root, cat); err != nil {
				return nil, fmt.Errorf("engine: shard %d: %w", shard, err)
			}
		}
		var ap *plan.AnalyzedPlan
		if p.collect {
			ap = &plan.AnalyzedPlan{}
		}
		var err error
		if t, err = plan.CompileTree(cat, root, plan.Config{Analyze: ap}); err != nil {
			if shard >= 0 {
				err = fmt.Errorf("engine: shard %d compile: %w", shard, err)
			}
			return nil, err
		}
		if p.collect {
			p.runs = append(p.runs, plan.ShardRun{Shard: shard, Root: root, Analysis: ap})
		}
	}
	p.trees = append(p.trees, sessionTree{shard, t})
	p.columns = t.Columns
	return t, nil
}

// release hands a plain session's trees back to its template once it no
// longer reads them.
func (p *pipelines) release() {
	if p.collect || p.tmpl == nil {
		return
	}
	for _, st := range p.trees {
		p.tmpl.Put(st.shard+1, st.tree)
	}
	for i := range p.shards {
		for _, st := range p.shards[i].trees {
			p.tmpl.Put(st.shard+1, st.tree)
		}
	}
	p.trees, p.shards = nil, nil
}

// finish is the shared tail of both tiers: output columns, the rank-join
// depth report with the depths the cost model charges at the session's k
// (plan.Node.Local), and the depth/latency histograms. Stats are read only
// after the drain closed the operators (and joined any shard workers): the
// session holds the trees, so no other goroutine can observe partial stats.
// Sharded sessions report their per-shard rank joins only when collecting.
func (e *Engine) finish(resp *Response, p *pipelines) {
	resp.Columns = append([]string(nil), p.columns...)
	for _, st := range p.trees {
		for _, h := range st.tree.Joins {
			stats := h.Op.Stats()
			idx := histOpIndex(h.Node.Op)
			e.met.observeOpDepth(idx, int64(stats.LeftDepth))
			e.met.observeOpDepth(idx, int64(stats.RightDepth))
			name := h.Node.Op.String()
			if st.shard >= 0 {
				if !p.collect {
					continue
				}
				name = fmt.Sprintf("%s[shard %d]", name, st.shard)
			}
			demand, _ := plan.DemandAt(st.tree.Plan, p.k, h.Node)
			loc := h.Node.Local(demand)
			resp.RankJoins = append(resp.RankJoins, RankJoinStat{
				Op:       name,
				Pred:     rankJoinPredLabel(h.Node),
				Stats:    stats,
				EstDL:    loc.Need[0],
				EstDR:    loc.Need[1],
				EstQueue: loc.Queue,
			})
		}
		// An any-k enumerator's "depths" are its drained inputs: histogram
		// only.
		for _, h := range st.tree.AnyKs {
			stats := h.Op.Stats()
			e.met.observeOpDepth(histOpAnyK, int64(stats.LeftDepth))
			e.met.observeOpDepth(histOpAnyK, int64(stats.RightDepth))
		}
	}
	for _, r := range p.runs {
		e.observeAnalyzedOps(r.Root, r.Analysis)
	}
}

// addExecSpans synthesizes the execute span's contents from the runtime
// stats, after execution finished (the per-tuple path records nothing — the
// 1-in-32 sampled collectors already ran). A sharded session gets one lane
// per shard worker (addShardSpans). A single-tier session gets the tuple
// count and one span per executed operator on one Chrome lane per plan
// depth, laid end-to-end from the execute start: durations are real
// measurements (Open wall time plus the extrapolated Next time), positions
// are layout.
func addExecSpans(tr *trace.Trace, parent int, execStart time.Time, root *plan.Node, resp *Response, runs []plan.ShardRun, tuples int) {
	if resp.ShardStats != nil {
		addShardSpans(tr, parent, resp.ShardStats, runs, execStart)
		return
	}
	tr.AnnotateInt(parent, "tuples", int64(tuples))
	ap := resp.Analysis
	cursors := map[int]time.Time{}
	var walk func(n *plan.Node, depth int)
	walk = func(n *plan.Node, depth int) {
		if st, ok := ap.Stats(n); ok {
			tid := trace.OperatorTID + depth
			at, seen := cursors[tid]
			if !seen {
				at = execStart
			}
			dur := time.Duration(st.OpenNanos + st.EstNextNanos())
			args := []trace.Arg{
				{Key: "tuples_out", Val: strconv.FormatInt(st.TuplesOut, 10)},
				{Key: "next_calls", Val: strconv.FormatInt(st.NextCalls, 10)},
			}
			if n.Op.IsRankJoin() {
				args = append(args,
					trace.Arg{Key: "depth_l", Val: strconv.FormatInt(st.LeftDepth, 10)},
					trace.Arg{Key: "depth_r", Val: strconv.FormatInt(st.RightDepth, 10)},
				)
			}
			tr.AddSpan(parent, n.Op.String(), "operator", tid, at, dur, args...)
			cursors[tid] = at.Add(dur)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
}

// observeAnalyzedOps folds an analyzed session's per-operator measurements
// into the engine-wide histograms: wall time (Open plus the extrapolated
// Next time) for every tracked operator type, plus the TopK sort's heap
// high-water as its depth sample. Rank-join and any-k depths are observed
// from the stats hook instead, which also covers untimed sessions.
func (e *Engine) observeAnalyzedOps(root *plan.Node, ap *plan.AnalyzedPlan) {
	root.Walk(func(n *plan.Node) {
		idx := histOpIndex(n.Op)
		if idx < 0 {
			return
		}
		st, ok := ap.Stats(n)
		if !ok {
			return
		}
		e.met.observeOpLatency(idx, st.OpenNanos+st.EstNextNanos())
		if idx == histOpTopK {
			e.met.observeOpDepth(histOpTopK, st.MaxHeap)
		}
	})
}

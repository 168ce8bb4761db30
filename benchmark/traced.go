package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
)

// span is one timed call into a layer. Spans of one request share its
// sequence number; Parent is the id of the span that caused this one (-1 for
// a root). Set-up spans belong to no request (Request -1).
type span struct {
	Name       string
	ID, Parent int
	Request    int
	Start, Dur time.Duration // Start is relative to the recorder's origin
}

// recorder keeps spans in memory until the run ends. It is used from one
// goroutine only. A nil recorder records nothing.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) begin(name string, parent, request int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans), Parent: parent, Request: request, Start: time.Since(r.origin)})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	s := &r.spans[id]
	s.Dur = time.Since(r.origin) - s.Start
	return s.Dur
}

// writeChrome writes the spans as Chrome trace-event JSON (complete events,
// microsecond timestamps) loadable in Perfetto or chrome://tracing. Every
// event carries its span id, its parent's id and its request number in args.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "request": s.Request},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedResult is one workload's per-layer measurement.
type tracedResult struct {
	Workload   string            `json:"workload"`
	Sizes      sizes             `json:"sizes"`
	StreamHash string            `json:"stream_hash"`
	Requests   int               `json:"requests"`
	Failed     int               `json:"failed"`
	FirstFail  string            `json:"first_failure,omitempty"`
	TraceFile  string            `json:"trace_file"`
	Metrics    map[string]metric `json:"metrics"`
}

// layerAgg accumulates what the traced pass observes besides span times.
type layerAgg struct {
	in  *instance
	rec *recorder
	// shardCats are the benchmark's own per-shard catalogs, for staging the
	// sharded compile and collect by hand (nil on an unsharded workload).
	shardCats  []*catalog.Catalog
	dp, greedy core.Options
	// seenText holds the texts sent since the last invalidation.
	seenText map[string]bool

	failed    int
	firstFail error

	ops                         map[plan.OpType]int
	plansGenerated, plansPruned int
	depthErrSum                 float64
	depthErrN                   int
	depthSum, queueMax, emitted int
	sharded                     int
	shards, started, pruned     int
	earlyStopped, pulled, saved int
	collectAllocs               uint64
	// self holds, per request, engine.run minus the stages the engine ran.
	self []float64
}

// runTraced produces the per-layer numbers for one workload. One client sends
// a fixed number of requests from the seeded stream, twice: an untraced pass
// (the tracing-overhead baseline), then on a fresh instance the traced pass,
// where every request is a root span `request` with `engine.run` as a child
// and, as sibling children, the same SQL replayed by hand through each
// layer's public functions. Nothing inside the program is instrumented.
func runTraced(ctx context.Context, def *workloadDef, cfg runConfig) (*tracedResult, error) {
	sz := cfg.sizesOf(def)
	stream := def.stream(cfg.seed, sz.StreamLen, len(def.shapes()))

	// Untraced pass: plain closed loop at one client over the same requests.
	base, err := setUp(def, sz, nil)
	if err != nil {
		return nil, err
	}
	if err := base.computeReferences(); err != nil {
		return nil, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	untraced := &client{feed: &feed{stream: stream}}
	for i := 0; i < sz.TraceRequests; i++ {
		if def.refreshEvery > 0 && i > 0 && i%def.refreshEvery == 0 {
			if err := base.refreshStats(); err != nil {
				return nil, err
			}
		}
		untraced.one(ctx, base)
	}
	runtime.ReadMemStats(&m1)
	if untraced.failed > 0 {
		return nil, fmt.Errorf("%s: wrong answer in the untraced pass: %w", def.name, untraced.firstFail)
	}
	refs := base.shapes
	base = nil
	runtime.GC()

	// Traced pass on a fresh instance, so cache state evolves identically.
	rec := newRecorder()
	in, err := setUp(def, sz, rec)
	if err != nil {
		return nil, err
	}
	in.shapes = refs
	a := &layerAgg{
		ops: map[plan.OpType]int{}, seenText: map[string]bool{}, in: in, rec: rec,
		dp: def.cfg.Options, greedy: def.cfg.Options,
	}
	a.greedy.Planner = core.PlannerGreedy
	for si := range in.shapes { // set-up's cache fill already sent these texts
		a.seenText[in.shapes[si].sql(def.ks[0])] = true
	}
	// catalog.create_index is measured by rebuilding every index of a second,
	// throwaway catalog (RebuildIndex bumps the stats epoch, so the serving
	// catalog is left alone); workload.generate_ms is reported net of it.
	scratch, err := def.build(sz.Rows)
	if err != nil {
		return nil, err
	}
	for _, name := range scratch.Names() {
		tab, err := scratch.Table(name)
		if err != nil {
			return nil, err
		}
		for _, idx := range append([]*catalog.Index(nil), tab.Indexes...) {
			sp := rec.begin("catalog.create_index", -1, -1)
			_, err := scratch.RebuildIndex(name, idx.Column)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	scratch = nil
	if n := def.cfg.Shards; n > 0 {
		sp := rec.begin("catalog.shard", -1, -1)
		a.shardCats, err = in.cat.Shard(n)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
	}
	runtime.GC()

	cs0 := in.eng.CacheStats()
	for i := 0; i < sz.TraceRequests; i++ {
		if def.refreshEvery > 0 && i > 0 && i%def.refreshEvery == 0 {
			sp := rec.begin("catalog.refresh_stats", -1, -1)
			err := in.refreshStats()
			rec.end(sp)
			if err != nil {
				return nil, err
			}
			a.seenText = map[string]bool{}
		}
		q := &in.queries[stream[i%len(stream)]]
		if err := a.request(ctx, i, q); err != nil {
			return nil, fmt.Errorf("%s: request %d %q: %w", def.name, i, q.sql, err)
		}
	}
	cs1 := in.eng.CacheStats()

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	traceFile := filepath.Join(cfg.outDir, def.name+".trace.json")
	if err := rec.writeChrome(traceFile); err != nil {
		return nil, err
	}

	n := float64(sz.TraceRequests)
	sum, count := map[string]time.Duration{}, map[string]int{}
	for _, s := range rec.spans {
		sum[s.Name] += s.Dur
		count[s.Name]++
	}
	// mean is a layer's time per call, in the given unit (ns per unit).
	mean := func(name string, unit float64) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(sum[name].Nanoseconds()) / unit / float64(count[name])
	}
	total := func(name string) float64 { return float64(sum[name].Nanoseconds()) / 1e6 }
	ratio := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	const us, msec = 1e3, 1e6
	lookups := float64(cs1.Hits - cs0.Hits + cs1.Misses - cs0.Misses)
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(cs1.Hits-cs0.Hits) / lookups
	}
	var untracedSum time.Duration
	for _, d := range untraced.lat {
		untracedSum += d
	}
	res := &tracedResult{
		Workload: def.name, Sizes: sz, Requests: sz.TraceRequests,
		StreamHash: streamHash(in.queries, stream),
		Failed:     a.failed, TraceFile: traceFile,
	}
	if a.firstFail != nil {
		res.FirstFail = a.firstFail.Error()
	}
	res.Metrics = map[string]metric{
		"sqlparse.parse_us":           {mean("sqlparse.parse", us), "us"},
		"sqlparse.fingerprint_us":     {mean("sqlparse.fingerprint", us), "us"},
		"core.optimize_ms":            {mean("core.optimize", msec), "ms"},
		"core.optimize_greedy_ms":     {mean("core.optimize_greedy", msec), "ms"},
		"core.plans_generated":        {float64(a.plansGenerated) / n, "count"},
		"core.plans_pruned_ratio":     {ratio(a.plansPruned, a.plansGenerated), "ratio"},
		"estimate.depth_rel_err":      {a.depthErrSum / math.Max(float64(a.depthErrN), 1), "ratio"},
		"plan.instantiate_us":         {mean("plan.instantiate", us), "us"},
		"plan.compile_us":             {mean("plan.compile", us), "us"},
		"plan.ops.hrjn":               {float64(a.ops[plan.OpHRJN]), "count"},
		"plan.ops.nrjn":               {float64(a.ops[plan.OpNRJN]), "count"},
		"plan.ops.anyk":               {float64(a.ops[plan.OpAnyK]), "count"},
		"plan.ops.ta":                 {float64(a.ops[plan.OpRankAgg]), "count"},
		"plan.ops.sort":               {float64(a.ops[plan.OpSort] + a.ops[plan.OpTopK]), "count"},
		"exec.collect_ms":             {mean("exec.collect", msec), "ms"},
		"exec.collect_allocs":         {float64(a.collectAllocs) / n, "count"},
		"exec.rankjoin_depth":         {float64(a.depthSum) / n, "count"},
		"exec.rankjoin_queue_max":     {float64(a.queueMax), "count"},
		"exec.tuples_per_result":      {ratio(a.depthSum, a.emitted), "ratio"},
		"exec.shard_started":          {float64(a.started) / n, "count"},
		"exec.shard_pruned_ratio":     {ratio(a.pruned, a.shards), "ratio"},
		"exec.shard_early_stop_ratio": {ratio(a.earlyStopped, a.shards), "ratio"},
		"exec.shard_tuples_pulled":    {float64(a.pulled) / n, "count"},
		"exec.shard_tuples_saved":     {float64(a.saved) / n, "count"},
		"engine.run_ms":               {mean("engine.run", msec), "ms"},
		"engine.self_us":              {median(a.self), "us"},
		"engine.cache_hit_ratio":      {hitRatio, "ratio"},
		"engine.cache_invalidations":  {float64(cs1.Invalidations - cs0.Invalidations), "count"},
		"engine.sharded_ratio":        {float64(a.sharded) / n, "ratio"},
		"catalog.refresh_stats_ms":    {mean("catalog.refresh_stats", msec), "ms"},
		"catalog.create_index_ms":     {total("catalog.create_index"), "ms"},
		"catalog.shard_ms":            {total("catalog.shard"), "ms"},
		"workload.generate_ms":        {math.Max(total("workload.generate")-total("catalog.create_index"), 0), "ms"},
		"engine.new_ms":               {total("engine.new"), "ms"},
		"bench.gc_cycles":             {float64(m1.NumGC - m0.NumGC), "count"},
		"bench.gc_pause_ms":           {float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
		"bench.trace_overhead_ratio":  {float64(sum["engine.run"]) / float64(untracedSum), "ratio"},
	}
	return res, nil
}

// request traces one request: engine.run, then the same SQL staged by hand.
func (a *layerAgg) request(ctx context.Context, seq int, q *query) error {
	in, rec := a.in, a.rec
	root := rec.begin("request", -1, seq)
	defer rec.end(root)

	sp := rec.begin("engine.run", root, seq)
	resp := in.eng.RunCtx(ctx, engine.Request{SQL: q.sql})
	run := rec.end(sp)
	if err := checkAnswer(&resp, &in.shapes[q.shape], q.k); err != nil {
		a.failed++
		if a.firstFail == nil {
			a.firstFail = fmt.Errorf("%q: %w", q.sql, err)
		}
		if resp.Err != nil {
			return resp.Err
		}
	}
	a.observe(&resp)

	sp = rec.begin("sqlparse.parse", root, seq)
	parsed, err := sqlparse.Parse(q.sql)
	parse := rec.end(sp)
	if err != nil {
		return err
	}
	sp = rec.begin("sqlparse.fingerprint", root, seq)
	_ = sqlparse.Fingerprint(parsed)
	fingerprint := rec.end(sp)

	sp = rec.begin("core.optimize", root, seq)
	res, err := core.Optimize(in.cat, parsed, a.dp)
	optimize := rec.end(sp)
	if err != nil {
		return err
	}
	a.plansGenerated += res.PlansGenerated
	a.plansPruned += res.PlansPruned
	sp = rec.begin("core.optimize_greedy", root, seq)
	_, err = core.Optimize(in.cat, parsed, a.greedy)
	rec.end(sp)
	if err != nil {
		return err
	}

	// Instantiate, compile and collect are staged on the plan the engine ran
	// (a cached template may have been optimized at another k than this
	// request's, so the optimizer run above can pick a different tree).
	tmpl := plan.NewTemplate(resp.Plan.Clone(), parsed.K, plan.PlanCounters{})
	sp = rec.begin("plan.instantiate", root, seq)
	tree := tmpl.Instantiate(parsed.K)
	instantiate := rec.end(sp)

	sp = rec.begin("plan.compile", root, seq)
	op, err := a.compile(tree, parsed.K)
	compile := rec.end(sp)
	if err != nil {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = rec.begin("exec.collect", root, seq)
	var tuples int
	if a.shardCats != nil {
		// the engine drains its shard coordinator tuple at a time
		out, cerr := exec.CollectPerTupleCtx(ctx, op)
		tuples, err = len(out), cerr
	} else {
		out, cerr := exec.CollectCtx(ctx, op)
		tuples, err = len(out), cerr
	}
	collect := rec.end(sp)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if tuples != len(resp.Tuples) {
		return fmt.Errorf("staged replay returned %d rows, engine %d", tuples, len(resp.Tuples))
	}
	a.collectAllocs += m1.Mallocs - m0.Mallocs

	// engine.self: the engine's own time is its span minus the stages it
	// would have run for this request. A hit skips optimize; a hit on a text
	// already sent since the last invalidation also skips parse+fingerprint.
	children := instantiate + compile + collect
	if !resp.CacheHit {
		children += parse + fingerprint + optimize
	} else if !a.seenText[q.sql] {
		children += parse + fingerprint
	}
	a.seenText[q.sql] = true
	a.self = append(a.self, float64((run-children).Nanoseconds())/1e3)
	return nil
}

// compile turns an instantiated plan into an operator the way the engine
// does: directly on an unsharded engine, or as one rebound clone per shard
// under a ShardMerge coordinator on a sharded one.
func (a *layerAgg) compile(tree *plan.Node, k int) (exec.Operator, error) {
	if a.shardCats == nil {
		return plan.Compile(a.in.cat, tree)
	}
	score := tree.Input().Score
	inputs := make([]exec.ShardInput, len(a.shardCats))
	for i, sc := range a.shardCats {
		clone := tree.Clone()
		if err := plan.Rebind(clone, sc); err != nil {
			return nil, err
		}
		op, err := plan.Compile(sc, clone)
		if err != nil {
			return nil, err
		}
		inputs[i] = exec.ShardInput{Op: op, Ceiling: scoreCeiling(sc, score)}
	}
	merge, err := exec.NewShardMerge(inputs, k, nil)
	if err != nil {
		return nil, err
	}
	merge.StartWidth = a.in.def.cfg.ShardWidth
	return merge, nil
}

// scoreCeiling is the a-priori bound the engine hands the coordinator: every
// score term at its column's per-shard maximum.
func scoreCeiling(sc *catalog.Catalog, score expr.ScoreSum) float64 {
	total := 0.0
	for _, term := range score.Terms {
		cr, ok := term.E.(expr.ColRef)
		if !ok {
			return math.Inf(1)
		}
		tab, err := sc.Table(cr.Table)
		if err != nil {
			return math.Inf(1)
		}
		if tab.Stats.Card == 0 {
			return math.Inf(-1)
		}
		total += term.Weight * tab.Stats.Cols[cr.Name].Max
	}
	return total
}

// observe folds one response's exact counters into the aggregate.
func (a *layerAgg) observe(resp *engine.Response) {
	if resp.Plan != nil {
		resp.Plan.Walk(func(n *plan.Node) { a.ops[n.Op]++ })
	}
	for _, rj := range resp.RankJoins {
		st := rj.Stats
		a.depthSum += st.LeftDepth + st.RightDepth
		if st.MaxQueue > a.queueMax {
			a.queueMax = st.MaxQueue
		}
		for _, p := range [][2]float64{{float64(st.LeftDepth), rj.EstDL}, {float64(st.RightDepth), rj.EstDR}} {
			if p[0] > 0 {
				a.depthErrSum += math.Abs(p[0]-p[1]) / p[0]
				a.depthErrN++
			}
		}
	}
	a.emitted += len(resp.Tuples)
	if resp.Sharded {
		a.sharded++
	}
	if st := resp.ShardStats; st != nil {
		a.shards += st.Shards
		a.started += st.Started
		a.pruned += st.Pruned
		a.earlyStopped += st.EarlyStopped
		a.pulled += st.TuplesPulled
		a.saved += st.TuplesSaved
	}
}

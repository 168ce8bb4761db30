// Command raqo is an interactive front-end to the rank-aware optimizer: it
// loads a synthetic catalog, parses a top-k SQL query, prints the chosen
// execution plan (EXPLAIN), and executes it.
//
// Usage:
//
//	raqo [flags] "SQL"        # one-shot
//	raqo [flags]              # read statements from stdin, one per line
//
// Flags select the synthetic catalog: -tables m -rows n -selectivity s
// generates ranked tables T1..Tm (columns id, key, score) with score and key
// indexes; -corpus generates the multimedia feature corpus instead
// (ColorHist, ColorLayout, Texture, Edges with columns id, score).
//
// All statements in one process share a single engine, so repeated queries
// are served from its plan cache; `\stats` in the REPL reports the cache's
// hit/miss counters, `\metrics` the engine-wide session counters, and
// `\analyze <SQL>` executes a statement with EXPLAIN ANALYZE instrumentation
// (estimated vs actual cardinalities and rank-join depths, per-operator
// times). The -metrics flag additionally serves /metrics (Prometheus text),
// /debug/engine (JSON), and /debug/pprof over HTTP on the given address.
//
// Tracing: `EXPLAIN TRACE <SQL>` (or the REPL's `\trace <SQL>`, or the
// -trace flag) runs the statement as a traced session and renders the
// optimizer decision trace — per-MEMO-entry candidates, plans pruned and
// why (domination, crossover k*), First-N-Rows protections, interesting
// orders — followed by the query span tree (parse through per-operator
// execution). -trace-json additionally writes the session's Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing) to a file.
// -slowquery DUR logs sessions at or over the threshold to stderr as
// structured records with the SQL, latency, fingerprint, and abort cause.
//
// Queries can be bounded: -timeout sets a per-query deadline, and the REPL's
// `\set limits buffer=N depth=N timeout=DUR` caps buffered tuples, rank-join
// input depths, and wall-clock per session (`\set limits off` clears them).
// Exceeding a bound aborts just that query with a typed error; the engine
// stays usable.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/trace"
	"rankopt/internal/workload"
)

func main() {
	var (
		tables      = flag.Int("tables", 3, "number of synthetic ranked tables T1..Tm")
		rows        = flag.Int("rows", 10000, "rows per table")
		selectivity = flag.Float64("selectivity", 0.01, "join selectivity on the key columns")
		seed        = flag.Int64("seed", 1, "generator seed")
		corpus      = flag.Bool("corpus", false, "load the multimedia feature corpus instead")
		explainOnly = flag.Bool("explain", false, "print the plan without executing")
		maxRows     = flag.Int("maxrows", 20, "result rows to display")
		baseline    = flag.Bool("baseline", false, "disable rank-aware optimization")
		stats       = flag.Bool("stats", false, "after execution, report measured vs estimated rank-join depths")
		noCache     = flag.Bool("nocache", false, "disable the plan cache")
		analyze     = flag.Bool("analyze", false, "execute with EXPLAIN ANALYZE instrumentation")
		metricsAddr = flag.String("metrics", "", "serve /metrics, /debug/engine, and /debug/pprof over HTTP on this address (e.g. :8080)")
		timeout     = flag.Duration("timeout", 0, "per-query deadline, e.g. 500ms (0 = none)")
		traceFlag   = flag.Bool("trace", false, "run traced sessions: print the optimizer decision trace and query span tree")
		traceJSON   = flag.String("trace-json", "", "write each traced session's Chrome trace-event JSON to this file")
		slowQuery   = flag.Duration("slowquery", 0, "log sessions at or over this duration to stderr, e.g. 100ms (0 = off)")
		plannerMode = flag.String("planner", "dp", "join-order planner: dp (System-R memo over every table subset) or greedy (the same enumeration over one greedy join order)")
		shards      = flag.Int("shards", 0, "serve from this many hash-partitioned shards (scatter-gather top-k tier; 0 = off)")
	)
	flag.Parse()

	var cat *catalog.Catalog
	var names []string
	if *corpus {
		cat, names = workload.Corpus(workload.CorpusConfig{Objects: *rows, Features: 4, Seed: *seed})
	} else {
		cat, names = workload.RankedSet(*tables, workload.RankedConfig{
			N: *rows, Selectivity: *selectivity, Seed: *seed,
		})
	}
	fmt.Printf("loaded tables: %s (%d rows each)\n", strings.Join(names, ", "), *rows)

	planner, err := core.ParsePlannerMode(*plannerMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	cfg := engine.Config{
		Options:          core.Options{DisableRankAware: *baseline, Planner: planner},
		DisablePlanCache: *noCache,
		Shards:           *shards,
	}
	if *shards > 0 {
		// The sharded tier needs a partition spec per table: the ranked set
		// co-partitions on the join key, the corpus on the object id.
		col := "key"
		if *corpus {
			col = "id"
		}
		for _, name := range names {
			spec := catalog.PartitionSpec{Column: col, Kind: catalog.PartitionHash}
			if err := cat.SetPartition(name, spec); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(2)
			}
		}
	}
	if *slowQuery > 0 {
		cfg.SlowQuery = *slowQuery
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	eng := engine.NewWithConfig(cat, cfg)
	if *shards > 0 {
		if err := eng.ShardError(); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		fmt.Printf("sharded over %d shards\n", eng.ShardCount())
	}
	if *metricsAddr != "" {
		go func() {
			fmt.Printf("serving /metrics and /debug/engine on %s\n", *metricsAddr)
			if err := http.ListenAndServe(*metricsAddr, eng.DebugMux()); err != nil {
				fmt.Fprintln(os.Stderr, "error: metrics server:", err)
			}
		}()
	}
	// limits and qTimeout are session state the REPL's `\set limits` command
	// mutates; the -timeout flag seeds the deadline for one-shot runs too.
	limits := exec.ResourceLimits{}
	qTimeout := *timeout
	run := func(sql string, analyzed, traced bool) {
		// `EXPLAIN TRACE <SQL>` is sugar for a traced session.
		if rest, ok := trimExplainTrace(sql); ok {
			sql, traced = rest, true
		}
		opts := queryOpts{
			Explain: *explainOnly, Analyze: analyzed, MaxRows: *maxRows, Stats: *stats,
			Trace: traced, TraceJSON: *traceJSON,
			Timeout: qTimeout, Limits: limits,
		}
		if err := runQuery(os.Stdout, eng, sql, opts); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
	if flag.NArg() > 0 {
		run(strings.Join(flag.Args(), " "), *analyze, *traceFlag)
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	fmt.Print("raqo> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == `\stats`:
			printCacheStats(os.Stdout, eng)
		case line == `\metrics`:
			printMetrics(os.Stdout, eng)
		case line == `\queries`:
			printQueries(os.Stdout, eng)
		case strings.HasPrefix(line, `\analyze `):
			run(strings.TrimSpace(strings.TrimPrefix(line, `\analyze `)), true, false)
		case strings.HasPrefix(line, `\trace `):
			run(strings.TrimSpace(strings.TrimPrefix(line, `\trace `)), false, true)
		case strings.HasPrefix(line, `\set limits`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\set limits`))
			if err := parseLimits(arg, &limits, &qTimeout); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			} else {
				printLimits(os.Stdout, limits, qTimeout)
			}
		default:
			run(line, *analyze, *traceFlag)
		}
		fmt.Print("raqo> ")
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "error: reading stdin:", err)
		os.Exit(1)
	}
}

// printCacheStats renders the engine's plan-cache counters (the REPL's
// `\stats` command).
func printCacheStats(w io.Writer, eng *engine.Engine) {
	st := eng.CacheStats()
	fmt.Fprintf(w, "plan cache: hits=%d misses=%d invalidations=%d entries=%d\n",
		st.Hits, st.Misses, st.Invalidations, st.Entries)
}

// printMetrics renders the engine-wide session counters (the REPL's
// `\metrics` command).
func printMetrics(w io.Writer, eng *engine.Engine) {
	m := eng.Snapshot()
	fmt.Fprintf(w, "sessions: queries=%d errors=%d analyzed=%d tuples=%d\n",
		m.Queries, m.Errors, m.Analyzed, m.TuplesReturned)
	fmt.Fprintf(w, "aborted: cancelled=%d deadline=%d over-budget=%d admission-timeout=%d (waiting=%d in-flight=%d)\n",
		m.QueriesCancelled, m.QueriesDeadlined, m.QueriesOverBudget,
		m.AdmissionTimeouts, m.AdmissionWaiting, m.InFlight)
	fmt.Fprintf(w, "latency: avg=%.3fms p50=%.3fms p99=%.3fms\n",
		m.AvgLatencyMillis, m.P50LatencyMillis, m.P99LatencyMillis)
	fmt.Fprintf(w, "plan cache: hits=%d misses=%d invalidations=%d entries=%d\n",
		m.CacheHits, m.CacheMisses, m.CacheInvalidations, m.CacheEntries)
	fmt.Fprintf(w, "optimizer: runs=%d generated=%d pruned=%d protected=%d traced=%d slow=%d anyk-plans=%d\n",
		m.OptimizerRuns, m.PlansGenerated, m.PlansPruned, m.PlansProtected,
		m.TracedQueries, m.SlowQueries, m.AnyKPlans)
	if m.ShardedQueries > 0 || m.ShardFallbacks > 0 {
		fmt.Fprintf(w, "sharded: queries=%d fallbacks=%d started=%d pruned=%d early-stopped=%d saved=%d\n",
			m.ShardedQueries, m.ShardFallbacks,
			m.ShardsStarted, m.ShardsPruned, m.ShardsEarlyStopped, m.ShardTuplesSaved)
	}
	for _, op := range m.Operators {
		if op.DepthCount == 0 && op.LatencyCount == 0 {
			continue
		}
		fmt.Fprintf(w, "op %s: depth n=%d p50=%.0f p99=%.0f | latency n=%d p50=%.3fms p99=%.3fms\n",
			op.Op, op.DepthCount, op.DepthP50, op.DepthP99,
			op.LatencyCount, op.LatencyP50Millis, op.LatencyP99Millis)
	}
	fmt.Fprintf(w, "runtime: goroutines=%d heap=%dKB objects=%d gc=%d pause-p99=%.0fµs\n",
		m.Runtime.Goroutines, m.Runtime.HeapAllocBytes/1024, m.Runtime.HeapObjects,
		m.Runtime.GCCycles, m.Runtime.GCPauseP99Micros)
}

// printQueries renders the live query registry (the REPL's `\queries`
// command): running sessions with their rank-aware progress, then recently
// finished ones.
func printQueries(w io.Writer, eng *engine.Engine) {
	qs := eng.Queries()
	if len(qs) == 0 {
		fmt.Fprintln(w, "no sessions")
		return
	}
	for _, q := range qs {
		line := fmt.Sprintf("#%d [%s] %.1fms", q.ID, q.State, q.ElapsedMillis)
		if q.ClientID != "" {
			line += " client=" + q.ClientID
		}
		if q.K > 0 {
			line += fmt.Sprintf(" emitted=%d/%d", q.Emitted, q.K)
		} else {
			line += fmt.Sprintf(" emitted=%d", q.Emitted)
		}
		if q.KthScore != nil {
			line += fmt.Sprintf(" kth=%.3f", *q.KthScore)
		}
		if q.MergeBound != nil {
			line += fmt.Sprintf(" bound=%.3f", *q.MergeBound)
		}
		if q.Sharded {
			line += fmt.Sprintf(" shards=%d/%d done (%d live)", q.ShardsDone, q.ShardsTotal, q.ShardsLive)
		}
		sql := q.SQL
		if len(sql) > 60 {
			sql = sql[:57] + "..."
		}
		if q.Error != "" {
			line += " error=" + q.Error
		}
		fmt.Fprintf(w, "%s  %s\n", line, sql)
	}
}

// parseLimits applies a `\set limits` argument string to the session state.
// Syntax: space-separated key=value pairs among buffer=N (max buffered
// tuples), depth=N (max rank-join depth per input), timeout=DUR (per-query
// deadline, Go duration syntax); the single word "off" clears everything.
func parseLimits(arg string, limits *exec.ResourceLimits, qTimeout *time.Duration) error {
	if arg == "off" {
		*limits = exec.ResourceLimits{}
		*qTimeout = 0
		return nil
	}
	if arg == "" {
		return nil // just print the current settings
	}
	for _, kv := range strings.Fields(arg) {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf(`\set limits: want key=value pairs (buffer=N depth=N timeout=DUR) or "off", got %q`, kv)
		}
		switch key {
		case "buffer":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf(`\set limits: bad buffer %q`, val)
			}
			limits.MaxBufferedTuples = n
		case "depth":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf(`\set limits: bad depth %q`, val)
			}
			limits.MaxDepthPerInput = n
		case "timeout":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return fmt.Errorf(`\set limits: bad timeout %q`, val)
			}
			*qTimeout = d
		default:
			return fmt.Errorf(`\set limits: unknown key %q (want buffer, depth, or timeout)`, key)
		}
	}
	return nil
}

// printLimits reports the active session limits.
func printLimits(w io.Writer, limits exec.ResourceLimits, qTimeout time.Duration) {
	render := func(n int64) string {
		if n == 0 {
			return "off"
		}
		return strconv.FormatInt(n, 10)
	}
	to := "off"
	if qTimeout > 0 {
		to = qTimeout.String()
	}
	fmt.Fprintf(w, "limits: buffer=%s depth=%s timeout=%s\n",
		render(limits.MaxBufferedTuples), render(limits.MaxDepthPerInput), to)
}

// trimExplainTrace strips a leading `EXPLAIN TRACE ` (any case) from the
// statement, reporting whether it was present.
func trimExplainTrace(sql string) (string, bool) {
	const prefix = "explain trace "
	if len(sql) > len(prefix) && strings.EqualFold(sql[:len(prefix)], prefix) {
		return strings.TrimSpace(sql[len(prefix):]), true
	}
	return sql, false
}

// queryOpts selects what runQuery renders beyond the result rows.
type queryOpts struct {
	// Explain stops before execution; Analyze executes with per-operator
	// instrumentation and renders the EXPLAIN ANALYZE tree.
	Explain, Analyze bool
	// Trace runs a traced session and renders the optimizer decision trace
	// and the query span tree instead of result rows; TraceJSON additionally
	// writes the Chrome trace-event export to the path.
	Trace     bool
	TraceJSON string
	MaxRows   int
	// Stats appends the measured-vs-estimated rank-join depth report.
	Stats bool
	// Timeout bounds the session wall-clock (0 = none); Limits caps its
	// buffered tuples and rank-join depths.
	Timeout time.Duration
	Limits  exec.ResourceLimits
}

// runQuery sends one statement through the shared engine and renders the
// response: plan (annotated with runtime stats under Analyze), optional depth
// stats, and result rows.
func runQuery(w io.Writer, eng *engine.Engine, sql string, o queryOpts) error {
	req := engine.Request{SQL: sql, ExplainOnly: o.Explain, Analyze: o.Analyze, Limits: o.Limits}
	var tr *trace.Trace
	if o.Trace || o.TraceJSON != "" {
		tr = trace.New(sql)
		req.Trace = tr
	}
	if o.Timeout > 0 {
		req.Deadline = time.Now().Add(o.Timeout)
	}
	resp := eng.Run(req)
	if resp.Err != nil {
		return resp.Err
	}
	cacheNote := "miss"
	if resp.CacheHit {
		cacheNote = "hit"
	}
	fmt.Fprintf(w, "plans generated=%d kept=%d (plan cache %s)\n",
		resp.PlansGenerated, resp.PlansKept, cacheNote)
	if o.Analyze && resp.ShardAnalysis != nil {
		fmt.Fprint(w, plan.FormatShardedAnalyze(resp.Plan, resp.ShardAnalysis, true))
	} else if o.Analyze && resp.Analysis != nil {
		fmt.Fprint(w, plan.FormatAnalyze(resp.Plan, resp.Analysis, true))
	} else {
		// A plain session's plan is its template's, bound to the k the
		// template was built at; print it at this request's.
		fmt.Fprint(w, plan.Explain(plan.NewTemplate(resp.Plan, resp.K, plan.PlanCounters{}).Instantiate(resp.K)))
	}
	if o.TraceJSON != "" {
		if err := writeChromeTrace(o.TraceJSON, tr); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", o.TraceJSON)
	}
	if o.Trace {
		// A traced session reports the optimizer's decisions and the span
		// tree; result rows are beside the point.
		if resp.OptTrace != nil {
			fmt.Fprint(w, resp.OptTrace.Format())
		}
		fmt.Fprint(w, tr.Tree())
		return nil
	}
	if o.Explain {
		return nil
	}
	if o.Stats && len(resp.RankJoins) > 0 {
		fmt.Fprintln(w, "-- rank-join depths: measured vs estimated --")
		for _, rj := range resp.RankJoins {
			fmt.Fprintf(w, "%s(%s): measured dL=%d dR=%d buffer=%d | estimated dL=%.0f dR=%.0f buffer=%.0f\n",
				rj.Op, rj.Pred, rj.Stats.LeftDepth, rj.Stats.RightDepth, rj.Stats.MaxQueue,
				rj.EstDL, rj.EstDR, rj.EstQueue)
		}
	}
	fmt.Fprintln(w, strings.Join(resp.Columns, " | "))
	for i, tup := range resp.Tuples {
		if i >= o.MaxRows {
			fmt.Fprintf(w, "... (%d more rows)\n", len(resp.Tuples)-o.MaxRows)
			break
		}
		var vals []string
		for _, v := range tup {
			vals = append(vals, v.String())
		}
		fmt.Fprintln(w, strings.Join(vals, " | "))
	}
	fmt.Fprintf(w, "(%d rows)\n", len(resp.Tuples))
	return nil
}

// writeChromeTrace exports the session's Chrome trace-event JSON.
func writeChromeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

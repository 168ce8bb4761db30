package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/engine"
)

// instance is one set-up workload: the data, the serving engine over it, and
// the request texts with their reference answers.
type instance struct {
	def     *workloadDef
	cat     *catalog.Catalog
	eng     *engine.Engine
	shapes  []shape
	queries []query
	// refreshed counts RefreshStats calls so far; it picks the next table.
	refreshed int
}

// setUp does everything setup_s covers: data generation, index builds,
// Catalog.Shard and engine construction, then one execution per shape so the
// plan cache is filled and lazy initialisation is behind us. rec may be nil.
func setUp(def *workloadDef, sz sizes, rec *recorder) (*instance, error) {
	sp := rec.begin("workload.generate", -1, -1)
	cat, err := def.build(sz.Rows)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", def.name, err)
	}
	sp = rec.begin("engine.new", -1, -1)
	eng := engine.NewWithConfig(cat, def.cfg)
	rec.end(sp)
	if err := eng.ShardError(); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	in := &instance{def: def, cat: cat, eng: eng, shapes: def.shapes()}
	in.queries = def.queries(in.shapes)
	sp = rec.begin("bench.cache_fill", -1, -1)
	defer rec.end(sp)
	for si := range in.shapes {
		resp := eng.Run(engine.Request{SQL: in.shapes[si].sql(def.ks[0])})
		if resp.Err != nil {
			return nil, fmt.Errorf("%s: cache fill %q: %w", def.name, resp.SQL, resp.Err)
		}
	}
	return in, nil
}

// computeReferences fills every shape's reference answer.
func (in *instance) computeReferences() error {
	k := in.def.maxK()
	for i := range in.shapes {
		if err := reference(in.cat, &in.shapes[i], k); err != nil {
			return err
		}
	}
	return nil
}

// refreshStats is plan-churn's write: recompute one table's statistics, which
// bumps the catalog's StatsEpoch and so invalidates every cached plan. The
// engine forbids catalog mutation while sessions run; callers quiesce first.
func (in *instance) refreshStats() error {
	names := in.cat.Names()
	err := in.cat.RefreshStats(names[in.refreshed%len(names)])
	in.refreshed++
	return err
}

// feed hands the shared request stream to the clients in order.
type feed struct {
	stream []uint32
	next   atomic.Int64
	// done counts the replies received, for the sampler's per-slice rates.
	done atomic.Int64
}

// client is one closed-loop caller's private state.
type client struct {
	feed *feed
	lat  []time.Duration
	// While a sliced window runs, cuts[i] is the number of samples in lat
	// when the first reply after the end of slice i arrived.
	start time.Time
	slice time.Duration
	cuts  []int
	// kern, when set, is run every calibrateEvery between two requests;
	// calAt and calRun hold when each run of a sliced window ended and how
	// long it took.
	kern    *kernel
	lastCal time.Time
	calAt   []time.Duration
	calRun  []time.Duration

	attempted int
	failed    int
	misses    int
	unsharded int
	firstFail error
}

// one sends the client's next request, waits for the reply, and checks it.
func (c *client) one(ctx context.Context, in *instance) {
	i := c.feed.next.Add(1) - 1
	q := &in.queries[c.feed.stream[i%int64(len(c.feed.stream))]]
	t0 := time.Now()
	resp := in.eng.RunCtx(ctx, engine.Request{SQL: q.sql})
	end := time.Now()
	for c.slice > 0 && end.Sub(c.start) >= time.Duration(len(c.cuts)+1)*c.slice {
		c.cuts = append(c.cuts, len(c.lat))
	}
	c.lat = append(c.lat, end.Sub(t0))
	c.feed.done.Add(1)
	if c.kern != nil && end.Sub(c.lastCal) >= calibrateEvery {
		d := c.kern.run()
		c.lastCal = end.Add(d)
		if c.slice > 0 {
			c.calAt, c.calRun = append(c.calAt, c.lastCal.Sub(c.start)), append(c.calRun, d)
		}
	}
	c.attempted++
	if err := checkAnswer(&resp, &in.shapes[q.shape], q.k); err != nil {
		c.failed++
		if c.firstFail == nil {
			c.firstFail = fmt.Errorf("%q: %w", q.sql, err)
		}
	}
	if !resp.CacheHit {
		c.misses++
	}
	if !resp.Sharded {
		c.unsharded++
	}
}

// sliceOf returns the samples whose replies arrived in slice i of the window.
func (c *client) sliceOf(i int) []time.Duration {
	cut := func(j int) int {
		if j < 0 {
			return 0
		}
		if j < len(c.cuts) {
			return c.cuts[j]
		}
		return len(c.lat)
	}
	return c.lat[cut(i-1):cut(i)]
}

// kernelRunsIn returns the client's kernel runs that ended in slice i.
func (c *client) kernelRunsIn(i int) []time.Duration {
	lo := sort.Search(len(c.calAt), func(j int) bool { return c.calAt[j] >= time.Duration(i)*c.slice })
	hi := sort.Search(len(c.calAt), func(j int) bool { return c.calAt[j] >= time.Duration(i+1)*c.slice })
	return c.calRun[lo:hi]
}

// drive runs the closed loop for the given duration: every client takes the
// stream's next request only after its previous reply. With a refresh schedule the
// loop proceeds in rounds of refreshEvery requests; between rounds the
// clients are quiesced and one table's statistics are refreshed. It returns
// the wall time actually spent (requests in flight at the deadline finish)
// and the number of completed rounds. With a positive slice the clients note
// where in their samples each slice of that length ends.
func (in *instance) drive(ctx context.Context, clients []*client, d, slice time.Duration) (time.Duration, int, error) {
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		c.start, c.slice = start, slice
	}
	rounds := 0
	for time.Now().Before(deadline) {
		var quota atomic.Int64
		quota.Store(math.MaxInt64)
		if in.def.refreshEvery > 0 {
			quota.Store(int64(in.def.refreshEvery))
		}
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for quota.Add(-1) >= 0 && time.Now().Before(deadline) {
					c.one(ctx, in)
				}
			}(c)
		}
		wg.Wait()
		if in.def.refreshEvery > 0 && time.Now().Before(deadline) {
			if err := in.refreshStats(); err != nil {
				return 0, rounds, err
			}
			rounds++
		}
	}
	return time.Since(start), rounds, nil
}

// timedResult is one workload's end-to-end measurement.
type timedResult struct {
	Workload   string  `json:"workload"`
	Sizes      sizes   `json:"sizes"`
	Clients    int     `json:"clients"`
	StreamHash string  `json:"stream_hash"`
	WindowS    float64 `json:"window_s"`
	Samples    int     `json:"samples"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FirstFail  string  `json:"first_failure,omitempty"`
	FailRatio  float64 `json:"fail_ratio"`
	MissShare  float64 `json:"miss_share"`
	Rounds     int     `json:"refresh_rounds"`
	OracleS    float64 `json:"oracle_s"`
	SetupReps  int     `json:"setup_reps"`
	// Metrics are the end-to-end metrics by their BENCHMARK.json names.
	Metrics map[string]metric `json:"metrics"`
	// Info are ungated tail diagnostics of the same window.
	Info map[string]metric `json:"info"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what a run is asked to do.
type runConfig struct {
	seed      int64
	window    time.Duration
	warmup    time.Duration
	setupReps int
	small     bool
	outDir    string
}

func (cfg *runConfig) sizesOf(def *workloadDef) sizes {
	if cfg.small {
		return def.small
	}
	return def.full
}

// clientCount is the load model: 2 closed-loop clients, never more than the
// machine has processors.
func clientCount() int {
	if runtime.NumCPU() < maxClients {
		return runtime.NumCPU()
	}
	return maxClients
}

// runTimed measures one workload end to end: set-up (several times, median
// reported), reference answers, untimed warm-up, GC, then the timed window
// with tracing off.
func runTimed(ctx context.Context, def *workloadDef, cfg runConfig) (*timedResult, error) {
	sz := cfg.sizesOf(def)
	var in *instance
	setups := make([]float64, cfg.setupReps)
	kern := newKernel()
	kern.run() // once untimed, so its memory is mapped
	for r := range setups {
		in = nil
		runtime.GC() // drop the previous repetition's catalog before timing the next
		t0 := time.Now()
		var err error
		if in, err = setUp(def, sz, nil); err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		var runs [setupKernelRuns]time.Duration
		for i := range runs {
			runs[i] = kern.run()
		}
		setups[r] = took / slowdown(runs[:])
	}
	t0 := time.Now()
	if err := in.computeReferences(); err != nil {
		return nil, err
	}
	oracle := time.Since(t0).Seconds()

	nclients := clientCount()
	fd := &feed{stream: def.stream(cfg.seed, sz.StreamLen, len(in.shapes))}
	clients := make([]*client, nclients)
	for c := range clients {
		// room for a window's samples, so the benchmark's own slice growth
		// stays out of the memory and allocation metrics
		clients[c] = &client{feed: fd, lat: make([]time.Duration, 0, sz.StreamLen/nclients), kern: newKernel()}
	}
	if _, _, err := in.drive(ctx, clients, cfg.warmup, 0); err != nil {
		return nil, err
	}
	for _, c := range clients {
		if c.failed > 0 {
			return nil, fmt.Errorf("%s: wrong answer during warm-up: %w", def.name, c.firstFail)
		}
		*c = client{feed: fd, lat: c.lat[:0], kern: c.kern}
	}
	runtime.GC()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	slice := sliceLength
	if cfg.window < slice {
		slice = cfg.window
	}
	nslices := int(cfg.window / slice)
	smp := startSampler(fd)
	elapsed, rounds, err := in.drive(ctx, clients, cfg.window, slice)
	samples, smpErr := smp.stop()
	if err != nil {
		return nil, err
	}
	if smpErr != nil {
		return nil, smpErr
	}
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	rssPeak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	res := &timedResult{
		Workload: def.name, Sizes: sz, Clients: nclients,
		StreamHash: streamHash(in.queries, fd.stream),
		WindowS:    elapsed.Seconds(), Rounds: rounds, OracleS: oracle, SetupReps: cfg.setupReps,
	}
	var lat []time.Duration
	misses, unsharded := 0, 0
	for _, c := range clients {
		lat = append(lat, c.lat...)
		res.Attempted += c.attempted
		res.Failed += c.failed
		misses += c.misses
		unsharded += c.unsharded
		if res.FirstFail == "" && c.firstFail != nil {
			res.FirstFail = c.firstFail.Error()
		}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no request completed in the window", def.name)
	}
	res.Samples = len(lat)
	n := float64(res.Attempted)
	res.FailRatio = float64(res.Failed) / n
	res.MissShare = float64(misses) / n

	// Workload preconditions: a violated one means the numbers describe a
	// different workload than the name promises, so the run aborts.
	if def.cfg.Shards > 0 && unsharded > 0 {
		return nil, fmt.Errorf("%s: %d of %d responses fell back to the unsharded path", def.name, unsharded, res.Attempted)
	}
	if def.refreshEvery == 0 && misses > 0 {
		return nil, fmt.Errorf("%s: %d plan-cache misses after warm-up; the workload must stay warm", def.name, misses)
	}
	if def.refreshEvery > 0 && rounds >= minRoundsForMissGuard && (res.MissShare < 0.15 || res.MissShare > 0.35) {
		return nil, fmt.Errorf("%s: miss share %.3f left the 15-35%% band", def.name, res.MissShare)
	}

	// The timing metrics are taken per slice at reference speed, and the
	// reported value is the quartile of the slices on the quiet side; see
	// sliceLength and the reference kernel.
	st := sliceStats(clients, samples, nslices, slice)
	if len(st.slow) == 0 {
		return nil, fmt.Errorf("%s: no slice of the window has both a reply and a kernel run", def.name)
	}
	rss := make([]float64, len(samples))
	for i := range samples {
		rss[i] = samples[i].rssMB
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	res.Metrics = map[string]metric{
		"qps":              {quantile(st.rate, 0.75), "1/s"},
		"latency_p50_ms":   {quantile(st.p50, 0.25), "ms"},
		"latency_p95_ms":   {quantile(st.p95, 0.25), "ms"},
		"allocs_per_query": {float64(m1.Mallocs-m0.Mallocs) / n, "count"},
		"cpu_ms_per_query": {quantile(st.cpu, 0.25), "ms"},
		"rss_median_mb":    {median(rss), "MB"},
		"setup_s":          {median(setups), "s"},
	}
	res.Info = map[string]metric{
		"bench.gc_cycles":   {float64(m1.NumGC - m0.NumGC), "count"},
		"bench.gc_pause_ms": {float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
		"bench.rss_peak_mb": {rssPeak, "MB"},
		// the host's median slowdown over the slices, and the four timing
		// metrics over the whole window as the clock read them
		"bench.host_slowdown":           {median(st.slow), "ratio"},
		"bench.window_qps":              {n / elapsed.Seconds(), "1/s"},
		"bench.window_latency_p50_ms":   {ms(percentile(lat, 0.50)), "ms"},
		"bench.window_latency_p95_ms":   {ms(percentile(lat, 0.95)), "ms"},
		"bench.window_cpu_ms_per_query": {(cpu1 - cpu0) * 1e3 / n, "ms"},
	}
	if len(lat) >= 1000 { // a p99 needs ten samples beyond it
		res.Info["bench.latency_p99_ms"] = metric{ms(percentile(lat, 0.99)), "ms"}
	}
	return res, nil
}

// minRoundsForMissGuard is how many refresh rounds a window needs before its
// miss share is judged; a share over fewer than ~250 requests is noise.
const minRoundsForMissGuard = 8

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	return sorted[int(math.Ceil(p*float64(len(sorted))))-1]
}

// quantile is the nearest-rank quantile of v.
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(math.Ceil(p*float64(len(s))))-1]
}

// sliceLength is the length of the slices the timed window is cut into (a
// window shorter than this is one slice). qps, the latency percentiles and
// cpu_ms_per_query are computed for every slice, brought to reference speed by
// the slowdown the reference kernel showed in that slice, and the value
// reported is the quartile of the slices on the quiet side: the lower quartile
// of the latencies and of the CPU time, the upper quartile of the rate. The
// quartile is for what the kernel does not follow (a neighbour holding the
// memory system hurts the workloads more than the kernel): a whole-window
// percentile moves with how much of the window such phases covered, while the
// quartile holds as long as a quarter of the window was free of them. The
// whole-window values as the clock read them are printed as bench.window_*.
const sliceLength = time.Second

// sliceValues holds, for every slice of the window that has a reply and a
// kernel run, the host's slowdown and the slice's timings at reference speed.
type sliceValues struct {
	slow, rate, p50, p95, cpu []float64
}

// sliceStats cuts the window into n slices. A slice's latencies are those of
// the replies that arrived in it, pooled over the clients. Its rate and CPU
// time per reply run from the sampler's first sample at or after its start to
// the first at or after its end, so time, CPU time and replies are read at
// the same two instants.
func sliceStats(clients []*client, samples []windowSample, n int, slice time.Duration) sliceValues {
	var out sliceValues
	j, prev := 0, samples[0]
	for i := 0; i < n; i++ {
		for j < len(samples)-1 && samples[j].at < time.Duration(i+1)*slice {
			j++
		}
		cur, from := samples[j], prev
		prev = cur
		var pool, runs []time.Duration
		for _, c := range clients {
			pool = append(pool, c.sliceOf(i)...)
			runs = append(runs, c.kernelRunsIn(i)...)
		}
		replies := float64(cur.done - from.done)
		if len(pool) == 0 || len(runs) == 0 || replies == 0 {
			continue
		}
		slow := slowdown(runs)
		sort.Slice(pool, func(a, b int) bool { return pool[a] < pool[b] })
		out.slow = append(out.slow, slow)
		out.rate = append(out.rate, replies/(cur.at-from.at).Seconds()*slow)
		out.p50 = append(out.p50, ms(percentile(pool, 0.50))/slow)
		out.p95 = append(out.p95, ms(percentile(pool, 0.95))/slow)
		out.cpu = append(out.cpu, (cur.cpuS-from.cpuS)*1e3/replies/slow)
	}
	return out
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// statusMB reads one kB-valued field of /proc/self/status, in MB.
func statusMB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() (float64, error) { return statusMB("VmHWM") }

// windowSample is the process's state at one instant of the timed window.
type windowSample struct {
	at    time.Duration
	rssMB float64
	cpuS  float64
	done  int64
}

// sampler reads the resident set size, the CPU time and the reply count every
// sampleEvery while a window runs, and once more when it is stopped. The
// window's memory metric is the median resident set size: the peak (VmHWM) is
// an extreme value of the collector's overshoot and scatters by a quarter
// from run to run, while the median repeats within a few percent.
type sampler struct {
	feed    *feed
	start   time.Time
	quit    chan struct{}
	done    chan struct{}
	samples []windowSample
	err     error
}

const sampleEvery = 50 * time.Millisecond

func (s *sampler) take() bool {
	var v windowSample
	if v.rssMB, s.err = statusMB("VmRSS"); s.err != nil {
		return false
	}
	if v.cpuS, s.err = cpuSeconds(); s.err != nil {
		return false
	}
	v.done, v.at = s.feed.done.Load(), time.Since(s.start)
	s.samples = append(s.samples, v)
	return true
}

func startSampler(fd *feed) *sampler {
	s := &sampler{feed: fd, start: time.Now(), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for s.take() {
			select {
			case <-s.quit:
				s.take()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop takes a last sample, waits for the sampler to exit and returns what it
// read.
func (s *sampler) stop() ([]windowSample, error) {
	close(s.quit)
	<-s.done
	return s.samples, s.err
}

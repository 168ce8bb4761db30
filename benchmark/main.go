// Command benchmark is the repo's seeded, self-checking top-k serving
// benchmark: four layer-isolating workloads driven through the engine exactly
// as a caller drives it (engine.NewWithConfig + Engine.RunCtx), with every
// answer checked against an independent reference. See README.md.
//
//	go run ./benchmark                        every workload, end-to-end metrics
//	go run ./benchmark -workload deep-dig     one workload
//	go run ./benchmark -trace 1               the traced per-layer run
//	go run ./benchmark -selfcheck             the suite twice, compared to the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeed is the seed BENCHMARK.json's baseline was taken at.
	// heldOutSeed is never used while a change is written; a claimed gain
	// must also hold on it.
	defaultSeed = 20040613
	heldOutSeed = 19990601
	// defaultWindowSeconds is the timed window; BENCHMARK.json's run_seconds.
	defaultWindowSeconds = 25
	// warmupSeconds of untimed closed-loop traffic precede the window.
	warmupSeconds = 2
	// setupRepetitions is how many times set-up runs; setup_s is their median.
	setupRepetitions = 9
	// maxClients is the closed loop's client count (fewer on a 1-CPU machine).
	maxClients = 2
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
		seconds      = flag.Float64("seconds", defaultWindowSeconds, "timed window length")
		trace        = flag.Int("trace", 0, "1 runs the traced per-layer run in place of the timed one")
		selfcheck    = flag.Bool("selfcheck", false, "run the timed suite twice and compare against BENCHMARK.json's bounds")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for summary.json and Chrome traces")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	defs := workloads
	if *workloadName != "" {
		def := findWorkload(*workloadName)
		if def == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		defs = []workloadDef{*def}
	}
	cfg := runConfig{
		seed:      *seed,
		window:    time.Duration(*seconds * float64(time.Second)),
		warmup:    warmupSeconds * time.Second,
		setupReps: setupRepetitions,
		outDir:    *outDir,
	}
	ctx := context.Background()
	var err error
	if *selfcheck {
		err = runSelfcheck(ctx, os.Stdout, defs, cfg)
	} else {
		err = runSuite(ctx, os.Stdout, defs, cfg, *trace == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// environment is stamped into every summary.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	Clients    int     `json:"clients"`
	Degraded   bool    `json:"degraded"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Seed       int64   `json:"seed"`
	HeldOut    int64   `json:"held_out_seed"`
}

func stampEnvironment(cfg runConfig) environment {
	head := "unknown" // a source checkout without .git has no HEAD to stamp
	if cwd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		// keep git from searching above the checkout for a repository
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		if out, err := cmd.Output(); err == nil {
			head = strings.TrimSpace(string(out))
		}
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitHead: head, Clients: clientCount(), Degraded: clientCount() < maxClients,
		WindowS: cfg.window.Seconds(), WarmupS: cfg.warmup.Seconds(), Seed: cfg.seed, HeldOut: heldOutSeed,
	}
}

// summary is what a run leaves in out/summary.json.
type summary struct {
	Env    environment     `json:"environment"`
	Timed  []*timedResult  `json:"timed,omitempty"`
	Traced []*tracedResult `json:"traced,omitempty"`
}

// resultLine is the machine-readable last line printed per workload.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runSuite runs the timed or the traced run of each workload, prints every
// metric by name with its unit, writes summary.json, and returns an error —
// so the process exits non-zero — on any wrong answer.
func runSuite(ctx context.Context, w io.Writer, defs []workloadDef, cfg runConfig, traced bool) error {
	sum := summary{Env: stampEnvironment(cfg)}
	printEnvironment(w, sum.Env)
	wrong := 0
	for i := range defs {
		def := &defs[i]
		var line resultLine
		if traced {
			res, err := runTraced(ctx, def, cfg)
			if err != nil {
				return err
			}
			sum.Traced = append(sum.Traced, res)
			fmt.Fprintf(w, "\n%s  traced, 1 client, %d requests, stream %s, trace %s\n",
				def.name, res.Requests, res.StreamHash, res.TraceFile)
			printMetrics(w, res.Metrics)
			line = resultLine{res.Failed == 0, res.Requests, res.Failed, res.Metrics}
			if res.Failed > 0 {
				fmt.Fprintf(w, "  FAILED %d of %d: %s\n", res.Failed, res.Requests, res.FirstFail)
			}
		} else {
			res, err := runTimed(ctx, def, cfg)
			if err != nil {
				return err
			}
			sum.Timed = append(sum.Timed, res)
			fmt.Fprintf(w, "\n%s  %d clients, window %.2f s, %d samples, stream %s, rows %d\n",
				def.name, res.Clients, res.WindowS, res.Samples, res.StreamHash, res.Sizes.Rows)
			printMetrics(w, res.Metrics)
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", "fail_ratio", res.FailRatio, "ratio")
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", "oracle_s", res.OracleS, "s")
			if def.refreshEvery > 0 {
				fmt.Fprintf(w, "  %-28s %14.6g %s\n", "miss_share", res.MissShare, "ratio")
			}
			printMetrics(w, res.Info)
			line = resultLine{res.Failed == 0, res.Attempted, res.Failed, res.Metrics}
			if res.Failed > 0 {
				fmt.Fprintf(w, "  FAILED %d of %d: %s\n", res.Failed, res.Attempted, res.FirstFail)
			}
		}
		wrong += line.Failed
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	if err := writeSummary(cfg.outDir, &sum); err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("%d answers differ from the reference", wrong)
	}
	return nil
}

func writeSummary(dir string, sum *summary) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "summary.json"), append(b, '\n'), 0o644)
}

func printEnvironment(w io.Writer, e environment) {
	fmt.Fprintf(w, "nproc=%d GOMAXPROCS=%d %s head=%s clients=%d window=%gs warmup=%gs seed=%d",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.GitHead, e.Clients, e.WindowS, e.WarmupS, e.Seed)
	if e.Degraded {
		fmt.Fprint(w, " degraded (1 CPU: 1 client)")
	}
	fmt.Fprintln(w)
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads: the
// regression bound of each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs the timed suite twice back to back and prints, for every
// (workload, end-to-end metric), both values and how much worse the second is
// than the first. It fails when that exceeds the metric's bound, or when any
// answer was wrong. Like the driver, it gives every run a process of its own,
// so that one workload's heap does not show in the next one's memory numbers.
func runSelfcheck(ctx context.Context, w io.Writer, defs []workloadDef, cfg runConfig) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var runs [2][]resultLine
	for r := range runs {
		for i := range defs {
			cmd := exec.CommandContext(ctx, self,
				"-workload", defs[i].name, "-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.window.Seconds()), "-out", cfg.outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s, run %d: %w", defs[i].name, r+1, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s, run %d: result line: %w", defs[i].name, r+1, err)
			}
			runs[r] = append(runs[r], line)
		}
	}
	printEnvironment(w, stampEnvironment(cfg))
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound")
	exceeded := 0
	for i := range defs {
		for _, m := range bf.EndToEnd {
			a, b := runs[0][i].Metrics[m.Name].Value, runs[1][i].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if math.IsNaN(worse) || worse > m.Bound {
				verdict = "  EXCEEDED"
				exceeded++
			}
			fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				defs[i].name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("selfcheck: %d metrics moved by more than their bound between two runs of the same code", exceeded)
	}
	return nil
}

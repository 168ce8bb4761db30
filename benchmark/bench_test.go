package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the smoke test holds the program to.
type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []declaredMetric        `json:"end_to_end"`
	PerLayer  []declaredMetric        `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func smokeConfig(t *testing.T) runConfig {
	return runConfig{
		seed: defaultSeed, window: 200 * time.Millisecond, warmup: 50 * time.Millisecond,
		setupReps: 1, small: true, outDir: t.TempDir(),
	}
}

// checkMetrics asserts that got holds exactly the declared metrics, each
// finite and tagged with the declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want []declaredMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is declared but not reported", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, declared %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s is not finite: %v", w.Name, m.Value)
		}
	}
}

func TestDeclaredWorkloads(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
}

func TestTimedSmoke(t *testing.T) {
	d := readDeclared(t)
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			res, err := runTimed(context.Background(), def, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res.Metrics, d.EndToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s must be positive, got %v", name, m.Value)
				}
			}
			if res.Failed != 0 || res.FailRatio != 0 {
				t.Errorf("%d of %d answers wrong: %s", res.Failed, res.Attempted, res.FirstFail)
			}
		})
	}
}

// exactCounts are the per-layer metrics that a fixed seed determines exactly.
// The exec.shard_* counts are left out: which shards start and how far they
// get depends on the order in which the coordinator sees their messages.
var exactCounts = []string{
	"core.plans_generated", "core.plans_pruned_ratio", "estimate.depth_rel_err",
	"plan.ops.hrjn", "plan.ops.nrjn", "plan.ops.anyk", "plan.ops.ta", "plan.ops.sort",
	"exec.rankjoin_depth", "exec.rankjoin_queue_max", "exec.tuples_per_result",
	"engine.cache_hit_ratio", "engine.cache_invalidations", "engine.sharded_ratio",
}

func TestTracedSmoke(t *testing.T) {
	d := readDeclared(t)
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res, err := runTraced(context.Background(), def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res.Metrics, d.PerLayer)
			if res.Failed != 0 {
				t.Errorf("%d of %d answers wrong: %s", res.Failed, res.Requests, res.FirstFail)
			}
			checkChromeTrace(t, res.TraceFile, res.Requests)

			again, err := runTraced(context.Background(), def, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.StreamHash != res.StreamHash {
				t.Errorf("same seed, different streams: %s vs %s", res.StreamHash, again.StreamHash)
			}
			for _, name := range exactCounts {
				if a, b := res.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a, b)
				}
			}
		})
	}
}

// checkChromeTrace parses a written trace and asserts the span tree is sound:
// one root per request, and every other span names a recorded parent of the
// same request.
func checkChromeTrace(t *testing.T, path string, requests int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Args struct{ ID, Parent, Request int }
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	byID := map[int]int{} // span id -> request
	for _, e := range doc.TraceEvents {
		byID[e.Args.ID] = e.Args.Request
	}
	roots := 0
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("span %s: phase %q", e.Name, e.Ph)
		}
		if e.Args.Parent < 0 {
			if e.Name == "request" {
				roots++
			}
			continue
		}
		if req, ok := byID[e.Args.Parent]; !ok {
			t.Errorf("span %s names parent %d, which is not in the trace", e.Name, e.Args.Parent)
		} else if req != e.Args.Request {
			t.Errorf("span %s of request %d has a parent of request %d", e.Name, e.Args.Request, req)
		}
	}
	if roots != requests {
		t.Errorf("%d request roots in the trace, want %d", roots, requests)
	}
}

func TestStreamsFollowTheSeed(t *testing.T) {
	for i := range workloads {
		def := &workloads[i]
		shapes := def.shapes()
		qs := def.queries(shapes)
		hash := func(seed int64) string {
			return streamHash(qs, def.stream(seed, def.small.StreamLen, len(shapes)))
		}
		if a, b := hash(defaultSeed), hash(defaultSeed); a != b {
			t.Errorf("%s: one seed gave two streams: %s, %s", def.name, a, b)
		}
		if a, b := hash(defaultSeed), hash(heldOutSeed); a == b {
			t.Errorf("%s: seeds %d and %d gave the same stream", def.name, defaultSeed, heldOutSeed)
		}
	}
}

// TestCheckerRejectsWrongAnswers guards the guard: a reference that is off by
// more than the tolerance, or a row short, must fail every affected request.
func TestCheckerRejectsWrongAnswers(t *testing.T) {
	def := findWorkload("point-topk")
	in, err := setUp(def, def.small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.computeReferences(); err != nil {
		t.Fatal(err)
	}
	c := &client{feed: &feed{stream: []uint32{0}}}
	c.one(context.Background(), in)
	if c.failed != 0 {
		t.Fatalf("the untampered reference fails: %v", c.firstFail)
	}
	q := in.queries[0]
	in.shapes[q.shape].ref[0] += 1e-6
	c.one(context.Background(), in)
	if c.failed != 1 {
		t.Errorf("a reference off by 1e-6 was accepted")
	}
	in.shapes[q.shape].ref = nil
	c.one(context.Background(), in)
	if c.failed != 2 {
		t.Errorf("a response with more rows than the reference was accepted")
	}
}

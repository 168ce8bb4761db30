package oracle

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -quick shrinks the corpus for CI smoke runs (also triggered by -short).
var quick = flag.Bool("quick", false, "run the reduced oracle corpus")

// corpusSize returns how many seeded cases to run.
func corpusSize() int {
	if *quick || testing.Short() {
		return 40
	}
	return 200
}

// TestDifferentialCorpus runs the fixed seed corpus: every optimizer
// alternative of every generated query must agree with brute force on the
// top-k score sequence. Failures drop a reproducer file under
// oracle_failures/ (seed + SQL + error) for CI artifact upload.
func TestDifferentialCorpus(t *testing.T) {
	n := corpusSize()
	plans := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		c := Generate(seed)
		rep, err := Run(c)
		if err != nil {
			writeReproducer(t, c, err)
			t.Fatalf("oracle disagreement: %v", err)
		}
		plans += rep.Plans
	}
	t.Logf("oracle: %d queries, %d plans executed, all agreed", n, plans)
	if plans < n {
		t.Fatalf("suspiciously few plans executed: %d over %d queries", plans, n)
	}
}

// TestDifferentialCorpusUnindexedScores runs the first cases of the corpus
// with every score index dropped, so the rank joins' inputs are Sorts that
// drain whole scanned heaps and key them from the column images; the scalar
// reference keys a copy of each on its tuples, so the two key paths meet on
// every plan.
func TestDifferentialCorpusUnindexedScores(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := Generate(seed)
		for _, name := range c.names {
			c.cat.DropIndex(name, "score")
		}
		if _, err := Run(c); err != nil {
			t.Fatalf("unindexed scores: %v", err)
		}
	}
}

// TestShardedDifferentialCorpus runs every corpus case through full engines
// at shard counts 1, 2, and 4 plus an unsharded engine, asserting all four
// top-k score sequences match the brute-force reference. Shard count 1 is the
// degenerate coordinator (one shard holding everything); 2 and 4 exercise
// real partitioning, per-shard planning, and the early-stop merge.
func TestShardedDifferentialCorpus(t *testing.T) {
	n := corpusSize()
	sharded := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		c := Generate(seed)
		rep, err := RunSharded(c, 1, 2, 4)
		if err != nil {
			writeReproducer(t, c, err)
			t.Fatalf("sharded oracle disagreement: %v", err)
		}
		sharded += rep.Sharded
	}
	t.Logf("sharded oracle: %d queries x 3 shard counts, %d sharded runs, all agreed", n, sharded)
	if sharded != 3*n {
		t.Fatalf("expected every run to shard: %d of %d", sharded, 3*n)
	}
}

// TestShardedSeed77ScatterDone pins the one reproducer that was ever checked
// in under oracle_failures/: seed 77, a 4-way top-11, came back from shards=4
// with rank 7 missing (brute force 2.158…, plan 1.843…) when ShardScatter let
// a shard's Done overtake the last tuples it had queued. Done has travelled
// in-band on the tuple channel since, and the case passes; it was a race, so
// it is run twenty times.
func TestShardedSeed77ScatterDone(t *testing.T) {
	c := Generate(77)
	if c.Tables != 4 || c.K != 11 {
		t.Fatalf("seed 77 no longer generates the 4-way top-11 case: %d tables, k=%d", c.Tables, c.K)
	}
	for run := 0; run < 20; run++ {
		if _, err := RunSharded(Generate(77), 4); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
}

// TestGenerateDeterministic pins that a seed reproduces its case exactly —
// the property that makes a one-line reproducer sufficient.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a, b := Generate(seed), Generate(seed)
		if a.SQL != b.SQL || a.Tables != b.Tables || a.K != b.K {
			t.Fatalf("seed %d not deterministic:\n%s\n%s", seed, a.SQL, b.SQL)
		}
	}
}

// TestCorpusCoversShapes checks the generator actually exercises the space:
// all join widths, some filters, some non-unit weights.
func TestCorpusCoversShapes(t *testing.T) {
	widths := map[int]int{}
	withFilter, withWeight := 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		c := Generate(seed)
		widths[c.Tables]++
		if containsFilter(c.SQL) {
			withFilter++
		}
		if containsWeight(c.SQL) {
			withWeight++
		}
	}
	for _, w := range []int{2, 3, 4} {
		if widths[w] == 0 {
			t.Errorf("no %d-way queries in the corpus", w)
		}
	}
	if withFilter == 0 {
		t.Error("no filtered queries in the corpus")
	}
	if withWeight == 0 {
		t.Error("no weighted-score queries in the corpus")
	}
}

func containsFilter(sql string) bool {
	return len(sql) > 0 && (stringContains(sql, ".id < "))
}

func containsWeight(sql string) bool {
	return stringContains(sql, "* ")
}

func stringContains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// writeReproducer records a failing case for CI artifact upload.
func writeReproducer(t *testing.T, c Case, failure error) {
	t.Helper()
	dir := "oracle_failures"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("cannot create %s: %v", dir, err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("seed_%d.txt", c.Seed))
	body := fmt.Sprintf("seed: %d\ntables: %d\nk: %d\nsql: %s\nerror: %v\n\nreproduce with:\n  go test ./internal/oracle -run TestReproduceSeed -seed %d\n",
		c.Seed, c.Tables, c.K, c.SQL, failure, c.Seed)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Logf("cannot write reproducer: %v", err)
		return
	}
	t.Logf("reproducer written to %s", path)
}

// -seed reruns one corpus case in isolation (see reproducer files).
var seedFlag = flag.Int64("seed", 0, "single oracle seed to reproduce")

// TestReproduceSeed replays one seed when -seed is given; otherwise it is a
// no-op so the normal suite ignores it.
func TestReproduceSeed(t *testing.T) {
	if *seedFlag == 0 {
		t.Skip("pass -seed N to replay a corpus case")
	}
	c := Generate(*seedFlag)
	t.Logf("sql: %s", c.SQL)
	if _, err := Run(c); err != nil {
		t.Fatal(err)
	}
}

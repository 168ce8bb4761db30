package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"

	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// AnyKConfig parameterizes the any-k vs m-way HRJN operator sweep over join
// width × k ("MultiHRJN" in the report is exec.NewMultiHRJN, the m-way
// constructor of the one hash rank join). Both operators answer the same
// m-way ranked path join; AnyK consumes the generated (unsorted) relations
// directly, while the m-way HRJN pays for the descending-order inputs its
// contract demands (a sort per input, exactly what a plan using it would
// charge). The sweep measures end-to-end top-k wall time, so the comparison
// matches what the cost model trades off.
type AnyKConfig struct {
	// Rows per table.
	Rows int `json:"rows"`
	// Selectivity is the join selectivity (key domain = 1/Selectivity), so
	// the per-key fan-out is Rows*Selectivity — the combinatorial factor
	// the m-way HRJN's eager combine multiplies across levels.
	Selectivity float64 `json:"selectivity"`
	// Widths are the swept join widths (2..8).
	Widths []int `json:"widths"`
	// Ks are the swept LIMIT bounds.
	Ks []int `json:"ks"`
	// Trials is how many timed runs the median is taken over.
	Trials int `json:"trials"`
	// Seed drives the workload generator; each (width, k) point derives its
	// own seed from it.
	Seed int64 `json:"seed"`
}

// DefaultAnyKConfig sweeps widths 2–4 across three k decades at a per-key
// fan-out of 8 — small enough to finish in seconds, large enough that the
// eager combine's product shows.
func DefaultAnyKConfig() AnyKConfig {
	return AnyKConfig{
		Rows:        400,
		Selectivity: 0.02,
		Widths:      []int{2, 3, 4},
		Ks:          []int{1, 10, 100},
		Trials:      7,
		Seed:        19,
	}
}

// AnyKPoint is one (width, k) measurement.
type AnyKPoint struct {
	Width int `json:"width"`
	K     int `json:"k"`
	// Seed is the per-point workload seed (derived from Config.Seed), stamped
	// so a single point can be reproduced without rerunning the sweep.
	Seed        int64   `json:"seed"`
	AnyKMicros  float64 `json:"anyk_us"`
	MultiMicros float64 `json:"multihrjn_us"`
	// Speedup is MultiMicros / AnyKMicros (>1 means any-k won).
	Speedup float64 `json:"speedup"`
	// Match is the three-way correctness verdict: AnyK, MultiHRJN, and the
	// brute-force reference agreed on the top-k score sequence.
	Match bool `json:"results_match"`
}

// AnyKReport is the BENCH_anyk.json artifact.
type AnyKReport struct {
	Config   AnyKConfig  `json:"config"`
	MaxProcs int         `json:"gomaxprocs"`
	CPUs     int         `json:"cpus"`
	Points   []AnyKPoint `json:"points"`
	// BestSpeedup is the largest any-k speedup of the sweep — the CI gate's
	// number.
	BestSpeedup float64 `json:"best_speedup"`
}

// anykBenchRels generates the point's relations with per-table derived seeds.
func anykBenchRels(m, n int, sel float64, seed int64) []*relation.Relation {
	rels := make([]*relation.Relation, m)
	for i := 0; i < m; i++ {
		rels[i] = workload.Ranked(workload.RankedConfig{
			Name: fmt.Sprintf("T%d", i+1), N: n, Selectivity: sel, Seed: seed + int64(i)*7919,
		})
	}
	return rels
}

// anykBruteTopK computes the reference top-k combined scores of the m-way
// key join over raw tuples.
func anykBruteTopK(rels []*relation.Relation, k int) []float64 {
	byKey := make([]map[int64][]float64, len(rels))
	for i, r := range rels {
		byKey[i] = map[int64][]float64{}
		for _, t := range r.Tuples() {
			byKey[i][t[1].AsInt()] = append(byKey[i][t[1].AsInt()], t[2].AsFloat())
		}
	}
	var scores []float64
	for key, base := range byKey[0] {
		partials := base
		for i := 1; i < len(byKey); i++ {
			next := byKey[i][key]
			if len(next) == 0 {
				partials = nil
				break
			}
			grown := make([]float64, 0, len(partials)*len(next))
			for _, p := range partials {
				for _, v := range next {
					grown = append(grown, p+v)
				}
			}
			partials = grown
		}
		scores = append(scores, partials...)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

// anykCombined sums the m per-input score columns of the (id, key, score)^m
// concatenated output.
func anykCombined(t relation.Tuple, m int) float64 {
	total := 0.0
	for i := 0; i < m; i++ {
		total += t[i*3+2].AsFloat()
	}
	return total
}

// runAnyKOperator constructs the any-k enumerator over unsorted scans and
// collects the top k.
func runAnyKOperator(rels []*relation.Relation, k int) ([]relation.Tuple, error) {
	m := len(rels)
	inputs := make([]exec.Operator, m)
	scores := make([]expr.Expr, m)
	lkeys := make([]expr.Expr, m-1)
	rkeys := make([]expr.Expr, m-1)
	for i, r := range rels {
		inputs[i] = exec.NewSeqScan(r)
		scores[i] = expr.Col(r.Name, "score")
		if i < m-1 {
			lkeys[i] = expr.Col(r.Name, "key")
		}
		if i > 0 {
			rkeys[i-1] = expr.Col(r.Name, "key")
		}
	}
	j, err := exec.NewAnyK(inputs, scores, lkeys, rkeys)
	if err != nil {
		return nil, err
	}
	return exec.CollectK(j, k)
}

// runMultiOperator constructs the m-way HRJN with the sort enforcers its input
// contract requires and collects the top k.
func runMultiOperator(rels []*relation.Relation, k int) ([]relation.Tuple, error) {
	m := len(rels)
	inputs := make([]exec.Operator, m)
	scores := make([]expr.Expr, m)
	keys := make([]expr.Expr, m)
	for i, r := range rels {
		inputs[i] = exec.NewSort(exec.NewSeqScan(r),
			exec.SortKey{E: expr.Col(r.Name, "score"), Desc: true})
		scores[i] = expr.Col(r.Name, "score")
		keys[i] = expr.Col(r.Name, "key")
	}
	j, err := exec.NewMultiHRJN(inputs, scores, keys)
	if err != nil {
		return nil, err
	}
	return exec.CollectK(j, k)
}

// AnyK runs the sweep.
func AnyK(cfg AnyKConfig) (*AnyKReport, error) {
	if cfg.Rows < 1 || cfg.Selectivity <= 0 || cfg.Trials < 1 ||
		len(cfg.Widths) == 0 || len(cfg.Ks) == 0 {
		return nil, fmt.Errorf("bench: degenerate anyk config %+v", cfg)
	}
	rep := &AnyKReport{
		Config: cfg, MaxProcs: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
	}
	pi := 0
	for _, m := range cfg.Widths {
		for _, k := range cfg.Ks {
			seed := cfg.Seed + int64(pi)*1009
			pi++
			rels := anykBenchRels(m, cfg.Rows, cfg.Selectivity, seed)

			akTuples, err := runAnyKOperator(rels, k)
			if err != nil {
				return nil, fmt.Errorf("bench: anyk m=%d k=%d: %w", m, k, err)
			}
			mhTuples, err := runMultiOperator(rels, k)
			if err != nil {
				return nil, fmt.Errorf("bench: multihrjn m=%d k=%d: %w", m, k, err)
			}
			want := anykBruteTopK(rels, k)
			match := len(akTuples) == len(want) && len(mhTuples) == len(want)
			if match {
				for i := range want {
					tol := 1e-9 * math.Max(math.Abs(want[i]), 1)
					if math.Abs(anykCombined(akTuples[i], m)-want[i]) > tol ||
						math.Abs(anykCombined(mhTuples[i], m)-want[i]) > tol {
						match = false
						break
					}
				}
			}

			pt := AnyKPoint{
				Width: m, K: k, Seed: seed, Match: match,
				AnyKMicros: medianMicros(cfg.Trials, func() {
					if _, err := runAnyKOperator(rels, k); err != nil {
						panic(err)
					}
				}),
				MultiMicros: medianMicros(cfg.Trials, func() {
					if _, err := runMultiOperator(rels, k); err != nil {
						panic(err)
					}
				}),
			}
			pt.Speedup = pt.MultiMicros / math.Max(pt.AnyKMicros, 1e-3)
			rep.BestSpeedup = math.Max(rep.BestSpeedup, pt.Speedup)
			rep.Points = append(rep.Points, pt)
		}
	}
	return rep, nil
}

// CheckGates is the CI gate: every point's three-way answers must agree, and
// at least one sweep point must show any-k beating MultiHRJN by minSpeedup —
// the crossover the cost model banks on when it picks AnyK plans.
func (r *AnyKReport) CheckGates(minSpeedup float64) error {
	for _, pt := range r.Points {
		if !pt.Match {
			return fmt.Errorf("bench: anyk and multihrjn answers diverged at width=%d k=%d (seed %d)",
				pt.Width, pt.K, pt.Seed)
		}
	}
	if r.BestSpeedup < minSpeedup {
		return fmt.Errorf("bench: best any-k speedup %.2fx below the %.2fx gate", r.BestSpeedup, minSpeedup)
	}
	return nil
}

// JSON renders the artifact bytes.
func (r *AnyKReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the bench text format.
func (r *AnyKReport) Table() *Table {
	t := &Table{
		Title: "Any-k enumeration vs MultiHRJN (width x k sweep)",
		Note: fmt.Sprintf("%d rows/table, sel=%g (fan-out %.0f), medians over %d trials | best any-k speedup=%.2fx",
			r.Config.Rows, r.Config.Selectivity, float64(r.Config.Rows)*r.Config.Selectivity,
			r.Config.Trials, r.BestSpeedup),
		Columns: []string{"width", "k", "anyk_us", "multihrjn_us", "speedup", "match"},
	}
	for _, pt := range r.Points {
		t.AddRow(float64(pt.Width), float64(pt.K), pt.AnyKMicros, pt.MultiMicros, pt.Speedup, pt.Match)
	}
	return t
}

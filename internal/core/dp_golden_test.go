package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// churnShape is one of the benchmark's plan-churn query shapes: an equi-join
// of its tables on key, ranked by the weighted sum of their score columns.
type churnShape struct {
	tables  []string
	weights []float64
}

// churnShapes mirrors benchmark/workloads.go's plan-churn shapes: four
// 3-table subsets and four weight vectors over all four tables.
var churnShapes = []churnShape{
	{[]string{"T1", "T2", "T3"}, []float64{0.2, 0.3, 0.5}},
	{[]string{"T1", "T2", "T4"}, []float64{0.5, 0.3, 0.2}},
	{[]string{"T1", "T3", "T4"}, []float64{0.4, 0.4, 0.2}},
	{[]string{"T2", "T3", "T4"}, []float64{0.6, 0.1, 0.3}},
	{[]string{"T1", "T2", "T3", "T4"}, []float64{0.1, 0.2, 0.3, 0.4}},
	{[]string{"T1", "T2", "T3", "T4"}, []float64{0.4, 0.3, 0.2, 0.1}},
	{[]string{"T1", "T2", "T3", "T4"}, []float64{0.3, 0.7, 0.5, 0.5}},
	{[]string{"T1", "T2", "T3", "T4"}, []float64{0.25, 0.25, 0.25, 0.25}},
}

// sql renders the shape the way the benchmark does; k = 0 omits the LIMIT.
func (s churnShape) sql(k int) string {
	var b strings.Builder
	b.WriteString("SELECT * FROM " + strings.Join(s.tables, ", ") + " WHERE ")
	for i := 1; i < len(s.tables); i++ {
		if i > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s.key = %s.key", s.tables[i-1], s.tables[i])
	}
	b.WriteString(" ORDER BY ")
	for i, t := range s.tables {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g*%s.score", s.weights[i], t)
	}
	b.WriteString(" DESC")
	if k > 0 {
		fmt.Fprintf(&b, " LIMIT %d", k)
	}
	return b.String()
}

func (s churnShape) query(t testing.TB, k int) *logical.Query {
	t.Helper()
	q, err := sqlparse.Parse(s.sql(k))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// churnCatalog is the plan-churn data set (benchmark dataSeed 2004).
func churnCatalog() *catalog.Catalog {
	cat, _ := workload.RankedSet(4, workload.RankedConfig{N: 1500, Selectivity: 0.01, Seed: 2004})
	return cat
}

// goldenKs and goldenVariants are the k values (0: no LIMIT) and the
// pruning-relevant option sets the golden covers for every shape.
var goldenKs = []int{1, 10, 50, 0}

var goldenVariants = []struct {
	name string
	opts Options
}{
	{"default", Options{}},
	{"no-anyk", Options{DisableAnyK: true}},
	{"no-protection", Options{DisablePipelineProtection: true}},
}

// mixedCatalog holds four ranked tables of different sizes and key
// domains, so that the plans of one MEMO entry — reached through splits
// whose selectivity products associate differently — differ in Card in the
// last bits, which the plan-churn catalog's equal tables never do.
func mixedCatalog() *catalog.Catalog {
	cat := catalog.New()
	for i, n := range []int{1200, 1500, 1800, 2100} {
		name := fmt.Sprintf("T%d", i+1)
		cat.AddTable(workload.Ranked(workload.RankedConfig{Name: name, N: n, Selectivity: 0.005 * float64(i+1), Seed: 2004 + int64(i)*7919}))
		for _, col := range []string{"score", "key"} {
			if _, err := cat.CreateIndex(name, col, false); err != nil {
				panic(err)
			}
		}
	}
	return cat
}

// TestMemoPlanFacts checks what the DP stores beside every retained plan
// against the plan itself, bit for bit: full is Cost(Card), atK is
// Cost(kmin) (full when the query has no k or the plan cannot produce k
// rows), order is the interned id of the plan's order property and
// pipelined its flag. Join candidates are costed from per-split local facts
// (splitCosts) and their inputs' stored costs, never by walking the plan, so
// this is what keeps that shortcut equal to Cost. On the mixed catalog a
// memo that served a method's facts by position in the loop, ignoring the
// cardinalities it was computed for, fails here: some candidates would get
// the facts of a plan whose Card differs in the last bits.
func TestMemoPlanFacts(t *testing.T) {
	for _, c := range []struct {
		name string
		cat  *catalog.Catalog
	}{{"plan-churn", churnCatalog()}, {"mixed", mixedCatalog()}} {
		for si, s := range churnShapes {
			for _, k := range goldenKs {
				q := s.query(t, k)
				for _, v := range goldenVariants {
					o, err := newOptimizer(c.cat, q, v.opts)
					if err != nil {
						t.Fatal(err)
					}
					o.runDP()
					checked, bad := 0, 0
					for _, e := range o.entries {
						for _, mp := range e.plans {
							checked++
							n := mp.n
							full, atK := n.Cost(n.Card), n.Cost(n.Card)
							if o.kmin > 0 && o.kmin < n.Card {
								atK = n.Cost(o.kmin)
							}
							id := o.intern(n.Props.Order).id
							if math.Float64bits(mp.full) != math.Float64bits(full) ||
								math.Float64bits(mp.atK) != math.Float64bits(atK) ||
								mp.order != id || mp.pipelined != n.Props.Pipelined {
								if bad++; bad <= 3 {
									t.Errorf("%s shape %d k=%d %s, entry %s: %s stored full=%v atK=%v order=%d pipelined=%v, want %v, %v, %d, %v",
										c.name, si, k, v.name, e.label, plan.Summary(n),
										mp.full, mp.atK, mp.order, mp.pipelined, full, atK, id, n.Props.Pipelined)
								}
							}
						}
					}
					if checked == 0 {
						t.Fatalf("%s shape %d k=%d %s: empty memo", c.name, si, k, v.name)
					}
				}
			}
		}
	}
}

// memoDigest condenses one MEMO entry — every retained plan's summary and
// full-output cost to the last bit, in retention order — to "n=<plans>
// <sha256 prefix>", which keeps the golden reviewable (one line per entry
// instead of a megabyte of plan listings).
func memoDigest(plans []*plan.Node) string {
	h := sha256.New()
	for _, p := range plans {
		fmt.Fprintf(h, "%s\t%.17g\n", plan.Summary(p), p.TotalCost())
	}
	return fmt.Sprintf("n=%d %x", len(plans), h.Sum(nil)[:12])
}

// TestDPEquivalenceGolden pins every observable planning outcome of the DP —
// counters, the chosen plan and its cost to the last bit, and every MEMO
// entry's retained plans in order — for the plan-churn shapes across k and
// the pruning-relevant option variants. The golden was recorded at commit
// 7dab661, before the optimizer's representation was reworked, and
// re-recorded when hierarchy rank joins' depths moved to
// estimate.Alternating, and when a join-equivalence class's column orders
// became one order — that time with every chosen plan and best cost
// unchanged, only the counters and MEMO digests moving. It exists to prove
// representation changes decision-for-decision identical and is
// regenerated (go test -update) only for a deliberate change of plans,
// costs or of what the MEMO keeps.
func TestDPEquivalenceGolden(t *testing.T) {
	cat := churnCatalog()
	var b strings.Builder
	for si, s := range churnShapes {
		for _, k := range goldenKs {
			q := s.query(t, k)
			for _, v := range goldenVariants {
				res, err := Optimize(cat, q, v.opts)
				if err != nil {
					t.Fatalf("shape %d k=%d %s: %v", si, k, v.name, err)
				}
				kEval := res.Best.Card
				if k > 0 {
					kEval = float64(k)
				}
				fmt.Fprintf(&b, "== shape %d k=%d %s\n", si, k, v.name)
				fmt.Fprintf(&b, "generated=%d kept=%d pruned=%d protected=%d\n",
					res.PlansGenerated, res.PlansKept, res.PlansPruned, res.PlansProtected)
				fmt.Fprintf(&b, "best cost=%.17g\n%s", res.Best.Cost(kEval), plan.Explain(res.Best))
				labels := make([]string, 0, len(res.Memo))
				for label := range res.Memo {
					labels = append(labels, label)
				}
				sort.Strings(labels)
				for _, label := range labels {
					fmt.Fprintf(&b, "memo %s %s\n", label, memoDigest(res.Memo[label]))
				}
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "dp_equivalence.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("DP outcome diverged from the golden: got %d bytes, want %d", len(got), len(want))
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		section := ""
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if strings.HasPrefix(gl[i], "== ") {
				section = gl[i]
			}
			if gl[i] != wl[i] {
				t.Errorf("first divergence at line %d (%s):\ngot:  %s\nwant: %s", i+1, section, gl[i], wl[i])
				break
			}
		}
	}
}

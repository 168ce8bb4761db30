package core

import (
	"fmt"
	"testing"

	"rankopt/internal/workload"
)

// TestOptimizeAllocs pins the allocation count of one cold 4-way
// optimization (the plan-churn catalog's first all-tables shape at k = 10).
// Before the per-entry table, stored cost endpoints and scratch candidates
// this took 578 357 allocations — a plan.Node, its Children slice, two
// enforcer sorts and several property strings per candidate, ~12 400
// candidates — and 2 655 after. The bound sits far below the former so
// allocating per candidate (rather than per survivor) again fails loudly.
func TestOptimizeAllocs(t *testing.T) {
	cat := churnCatalog()
	q := churnShapes[4].query(t, 10)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Optimize(cat, q, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("4-way Optimize: %.0f allocs", allocs)
	if allocs > 15000 {
		t.Errorf("4-way Optimize allocates %.0f times, want <= 15000", allocs)
	}
}

// BenchmarkOptimize times one cold DP optimization per join width over the
// plan-churn data shape, so
//
//	go test -run '^$' -bench Optimize -cpuprofile cpu.out ./internal/core
//
// answers "where did core.optimize_ms go".
func BenchmarkOptimize(b *testing.B) {
	cat, _ := workload.RankedSet(5, workload.RankedConfig{N: 1500, Selectivity: 0.01, Seed: 2004})
	all := churnShape{
		tables:  []string{"T1", "T2", "T3", "T4", "T5"},
		weights: []float64{0.1, 0.2, 0.3, 0.4, 0.5},
	}
	for _, width := range []int{3, 4, 5} {
		b.Run(fmt.Sprintf("%dway", width), func(b *testing.B) {
			s := churnShape{tables: all.tables[:width], weights: all.weights[:width]}
			q := s.query(b, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(cat, q, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

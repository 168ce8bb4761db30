// Package rankopt's root benchmark suite regenerates the paper's evaluation:
// one testing.B benchmark per figure/table (go test -bench=. -benchmem).
// Each benchmark runs the corresponding experiment from internal/bench and,
// on the first iteration, prints the regenerated table so benchmark runs
// double as the reproduction log.
package rankopt

import (
	"fmt"
	"sync"
	"testing"

	"rankopt/internal/bench"
)

var printOnce sync.Map

func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tab, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if _, done := printOnce.LoadOrStore(name, true); !done {
			fmt.Println(tab)
		}
	}
}

func BenchmarkFig01SortVsRankJoinCost(b *testing.B)     { runExperiment(b, "fig1") }
func BenchmarkFig02MemoInterestingOrders(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFig03MemoRankAware(b *testing.B)          { runExperiment(b, "fig3") }
func BenchmarkTable1InterestingOrderExprs(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig04KPropagation(b *testing.B)           { runExperiment(b, "fig4") }
func BenchmarkFig06EffectOfK(b *testing.B)              { runExperiment(b, "fig6") }
func BenchmarkFig13DepthVsK(b *testing.B)               { runExperiment(b, "fig13") }
func BenchmarkFig14DepthVsSelectivity(b *testing.B)     { runExperiment(b, "fig14") }
func BenchmarkFig15BufferSize(b *testing.B)             { runExperiment(b, "fig15") }
func BenchmarkAblationJoinChoices(b *testing.B)         { runExperiment(b, "joins") }
func BenchmarkAblationPruning(b *testing.B)             { runExperiment(b, "pruning") }
func BenchmarkAblationDistributions(b *testing.B)       { runExperiment(b, "dists") }
func BenchmarkAblationTopKSort(b *testing.B)            { runExperiment(b, "topksort") }
func BenchmarkAblationRankAggregate(b *testing.B)       { runExperiment(b, "taplan") }

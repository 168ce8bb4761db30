package bench

import "fmt"

// Experiment names one runnable reproduction unit.
type Experiment struct {
	Name string
	// What identifies the paper artifact it regenerates.
	What string
	Run  func() (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: sort vs rank-join cost across selectivity", func() (*Table, error) { return Fig1(), nil }},
		{"fig2", "Figure 2: MEMO growth from interesting orders", Fig2},
		{"fig3", "Figure 3: MEMO growth from ranking expressions", Fig3},
		{"table1", "Table 1: interesting order expressions of Q2", Table1},
		{"fig4", "Figure 4: k propagation through a rank-join pipeline", Fig4},
		{"fig6", "Figure 6: effect of k on plan costs, crossover k*", func() (*Table, error) { return Fig6(), nil }},
		{"fig13", "Figure 13: depth estimation accuracy vs k", Fig13},
		{"fig14", "Figure 14: depth estimation accuracy vs selectivity", Fig14},
		{"fig15", "Figure 15: buffer size estimation", Fig15},
		{"joins", "Ablation: rank-join choices", AblationJoinChoices},
		{"pruning", "Ablation: pruning ingredients", AblationPruning},
		{"dists", "Ablation: depth-model robustness across score distributions", AblationDistributions},
		{"topksort", "Ablation: full sort vs bounded-heap top-k sort", AblationTopKSort},
		{"taplan", "Ablation: Fagin-TA plan vs optimizer's winner", AblationRankAggregate},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", name)
}

// Command raqo-bench regenerates the paper's evaluation artifacts: every
// figure and table of "Rank-aware Query Optimization" (SIGMOD 2004) plus the
// ablation studies, printed as aligned text tables. Serving performance is
// measured by the end-to-end benchmark instead (bash benchmark/run.sh).
//
// Usage:
//
//	raqo-bench                 # list experiments
//	raqo-bench all             # run everything
//	raqo-bench fig6 fig13      # run selected experiments
package main

import (
	"fmt"
	"os"

	"rankopt/internal/bench"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Println("usage: raqo-bench all | <experiment>...")
		fmt.Println("experiments:")
		for _, e := range bench.All() {
			fmt.Printf("  %-10s %s\n", e.Name, e.What)
		}
		return
	}
	var exps []bench.Experiment
	if len(args) == 1 && args[0] == "all" {
		exps = bench.All()
	} else {
		for _, name := range args {
			e, err := bench.ByName(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			exps = append(exps, e)
		}
	}
	for _, e := range exps {
		tab, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.Name, err)
			os.Exit(1)
		}
		fmt.Println(tab)
	}
}

package main

import (
	"fmt"
	"math"
	"sort"

	"rankopt/internal/catalog"
	"rankopt/internal/engine"
)

// The reference answers come from a hand-written path that shares nothing
// with the planner or the executor: group every table's weighted scores by
// join value, and per join value combine the tables left to right. Because
// the ranking function is a sum with positive weights, only the k best
// partial sums can reach the top k, so each step keeps k of them. Ties make
// tuple identity ambiguous, so the reference is the score sequence alone.

// scoreTol is the absolute tolerance on a reported score.
const scoreTol = 1e-9

// reference fills s.ref with the shape's top-k scores, descending.
func reference(cat *catalog.Catalog, s *shape, k int) error {
	groups := make([]map[int64][]float64, len(s.tables))
	for i, name := range s.tables {
		tab, err := cat.Table(name)
		if err != nil {
			return err
		}
		sch := tab.Rel.Schema()
		join, err := sch.Resolve(name, s.joinCol)
		if err != nil {
			return err
		}
		score, err := sch.Resolve(name, "score")
		if err != nil {
			return err
		}
		g := make(map[int64][]float64)
		w := s.weight(i)
		for _, t := range tab.Rel.Tuples() {
			key := t[join].AsInt()
			g[key] = append(g[key], w*t[score].AsFloat())
		}
		for key, v := range g {
			g[key] = topDesc(v, k)
		}
		groups[i] = g
	}
	var best []float64
	for key, partial := range groups[0] {
		for _, g := range groups[1:] {
			next := g[key]
			if len(next) == 0 {
				partial = nil
				break
			}
			sums := make([]float64, 0, len(partial)*len(next))
			for _, a := range partial {
				for _, b := range next {
					sums = append(sums, a+b)
				}
			}
			partial = topDesc(sums, k)
		}
		best = append(best, partial...)
		if len(best) > 4*k {
			best = topDesc(best, k)
		}
	}
	s.ref = topDesc(best, k)
	return nil
}

// topDesc sorts v descending in place and returns its first k values.
func topDesc(v []float64, k int) []float64 {
	sort.Sort(sort.Reverse(sort.Float64Slice(v)))
	if len(v) > k {
		v = v[:k]
	}
	return v
}

// checkAnswer compares one response to the reference: no error, exactly
// min(k, available) rows, and every reported score within scoreTol.
func checkAnswer(resp *engine.Response, s *shape, k int) error {
	if resp.Err != nil {
		return resp.Err
	}
	want := s.ref
	if len(want) > k {
		want = want[:k]
	}
	if len(resp.Tuples) != len(want) {
		return fmt.Errorf("%d rows, reference has %d", len(resp.Tuples), len(want))
	}
	col := -1
	for i := len(resp.Columns) - 1; i >= 0; i-- {
		if resp.Columns[i] == "score" {
			col = i
			break
		}
	}
	if col < 0 {
		return fmt.Errorf("no score column in %v", resp.Columns)
	}
	for i, t := range resp.Tuples {
		if got := t[col].AsFloat(); !(math.Abs(got-want[i]) <= scoreTol) {
			return fmt.Errorf("rank %d: score %.12g, reference %.12g", i+1, got, want[i])
		}
	}
	return nil
}

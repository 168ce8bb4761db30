package core

import (
	"math"
	"math/bits"
)

// runGreedy is the greedy planner: greedyPath fixes the join order, and the
// DP's own enumeration runs on that path's prefixes only, each joined from
// the prefix before it and the table it adds, in both orders. Everything
// else — access paths, join methods, any-k, pruning, the final assembly — is
// the DP's.
func (o *optimizer) runGreedy() {
	o.enumerateBase()
	path := o.greedyPath()
	o.enumerateJoins(path[1:], func(subs []uint64, mask uint64) []uint64 {
		prefix := path[bits.OnesCount64(mask)-2]
		return append(subs, prefix, mask^prefix)
	})
}

// greedyPath orders the joins from signals visible without enumerating:
// filtered cardinalities, join-graph connectivity and ranked inputs. It
// starts at the most constrained table and repeatedly adds the connected
// table minimizing the estimated intermediate cardinality s·|prefix|·|t|,
// and returns the path's prefix masks, one per length from 1 to n.
func (o *optimizer) greedyPath() []uint64 {
	// Join-graph degree: how many distinct other tables each table joins to.
	degree := make([]int, len(o.tables))
	for i := range o.tables {
		bit, joined := uint64(1)<<uint(i), uint64(0)
		for _, j := range o.joins {
			if j.lBit == bit {
				joined |= j.rBit
			} else if j.rBit == bit {
				joined |= j.lBit
			}
		}
		degree[i] = bits.OnesCount64(joined)
	}

	// Start at the most constrained table: smallest filtered cardinality
	// (predicate constants shrink card via filtSel), then highest join-graph
	// degree, then ranked tables first (a ranked start feeds rank joins from
	// the bottom of the pipeline).
	start := o.tables[0]
	better := func(a, b *tableInfo) bool {
		if a.card != b.card {
			return a.card < b.card
		}
		if degree[a.idx] != degree[b.idx] {
			return degree[a.idx] > degree[b.idx]
		}
		if (a.term != nil) != (b.term != nil) {
			return a.term != nil
		}
		return a.idx < b.idx
	}
	for _, ti := range o.tables[1:] {
		if better(ti, start) {
			start = ti
		}
	}

	path := make([]uint64, 1, len(o.tables))
	path[0] = 1 << uint(start.idx)
	card := start.card
	for len(path) < len(o.tables) {
		cur := path[len(path)-1]
		var next *tableInfo
		bestOut := math.Inf(1)
		for _, ti := range o.tables {
			bit := uint64(1) << uint(ti.idx)
			if cur&bit != 0 {
				continue
			}
			preds, s := o.selectivityBetween(cur, bit)
			if len(preds) == 0 {
				continue // would be a Cartesian product
			}
			out := math.Max(s*card*ti.card, 1e-9)
			if out < bestOut || (out == bestOut && degree[ti.idx] > degree[next.idx]) {
				next, bestOut = ti, out
			}
		}
		if next == nil {
			// Validate rejects a disconnected join graph; the full subset
			// then holds no plan and finish reports it.
			break
		}
		path = append(path, cur|1<<uint(next.idx))
		card = bestOut
	}
	return path
}

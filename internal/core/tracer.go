package core

// This file is the optimizer's decision-trace hook: an optional Tracer on
// Options observes every pruning decision the Section 3.3 rules take —
// candidates considered per MEMO entry, plans pruned or evicted and *why*
// (property+cost domination, with the crossover k* when a rank-join plan
// was compared against a blocking plan), pipelined plans that survived a
// cost domination only through the First-N-Rows protection, interesting
// order expressions that fired rank-join alternatives, and the final
// cost-at-k comparison. DecisionTrace is the stock collector; FormatTrace
// renders it as the EXPLAIN TRACE text tree.

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"rankopt/internal/plan"
)

// DecisionKind classifies one optimizer decision event.
type DecisionKind uint8

// Decision kinds.
const (
	// DecisionCandidate marks one candidate plan entering a MEMO entry
	// (recorded without a plan summary: it exists to count, not to render).
	DecisionCandidate DecisionKind = iota
	// DecisionPruned marks a candidate rejected because an existing plan
	// dominates it on properties and cost.
	DecisionPruned
	// DecisionEvicted marks an existing plan removed because the incoming
	// candidate dominates it.
	DecisionEvicted
	// DecisionProtected marks a pipelined plan that a cheaper blocking plan
	// would have dominated on cost, kept alive by the First-N-Rows property.
	DecisionProtected
	// DecisionOrderFired marks a rank-join alternative generated because its
	// inputs carry (or can enforce) an interesting ranking-order expression.
	DecisionOrderFired
	// DecisionInterestingOrder is one row of the paper's Table 1 for the
	// query (recorded once per expression when tracing is on).
	DecisionInterestingOrder
	// DecisionKept is one plan retained in a MEMO entry after the full
	// enumeration (recorded once per surviving plan, in deterministic order).
	DecisionKept
	// DecisionFinalCost is one final-assembly comparison: a completed
	// full-query plan with its cost at the query's k, the chosen rival, and
	// the crossover k* when the pair is a rank/sort pairing.
	DecisionFinalCost
)

var decisionNames = map[DecisionKind]string{
	DecisionCandidate:        "candidate",
	DecisionPruned:           "pruned",
	DecisionEvicted:          "evicted",
	DecisionProtected:        "protected",
	DecisionOrderFired:       "order-fired",
	DecisionInterestingOrder: "interesting-order",
	DecisionKept:             "kept",
	DecisionFinalCost:        "final",
}

// String returns the kind's display name.
func (k DecisionKind) String() string { return decisionNames[k] }

// Decision is one optimizer decision event.
type Decision struct {
	Kind DecisionKind
	// Level is the DP size level (popcount of the MEMO entry's table mask);
	// 0 marks final-assembly events.
	Level int
	// Entry is the MEMO entry label (e.g. "T1,T2"); "final" for assembly.
	Entry string
	// Plan is the one-line summary of the plan the decision is about.
	Plan string
	// Rival is the plan on the other side of a domination or comparison.
	Rival string
	// CrossoverK is Section 3.3's k*: the k at which the k-sensitive plan's
	// cost overtakes the blocking plan's. 0 means not a rank/sort pairing;
	// na+1 means the rank plan is cheaper over the whole achievable range.
	CrossoverK float64
	// Note carries the human-readable reason ("dominated on rank:T1,T2
	// pipelined; cost 12.3<=45.6 at k=10", "cheaper blocking rival ...").
	Note string
}

// Tracer observes optimizer decisions. One optimization calls it from one
// goroutine, in enumeration order.
type Tracer interface {
	OnDecision(Decision)
}

// DecisionTrace is the stock Tracer: a mutex-guarded event log with
// per-entry candidate counts, renderable with Format.
type DecisionTrace struct {
	mu        sync.Mutex
	decisions []Decision
	// candidates counts DecisionCandidate events per MEMO entry label.
	candidates map[string]int
}

// NewDecisionTrace returns an empty collector.
func NewDecisionTrace() *DecisionTrace {
	return &DecisionTrace{candidates: map[string]int{}}
}

// OnDecision implements Tracer.
func (dt *DecisionTrace) OnDecision(d Decision) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if d.Kind == DecisionCandidate {
		dt.candidates[d.Entry]++
		return
	}
	dt.decisions = append(dt.decisions, d)
}

// Decisions returns a copy of the recorded events (candidate counts live in
// TotalCandidates, not here).
func (dt *DecisionTrace) Decisions() []Decision {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return append([]Decision(nil), dt.decisions...)
}

// TotalCandidates returns the number of candidate plans recorded across all
// MEMO entries (the decision-trace view of Result.PlansGenerated).
func (dt *DecisionTrace) TotalCandidates() int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	n := 0
	for _, c := range dt.candidates {
		n += c
	}
	return n
}

// CountKind returns how many events of the kind were recorded.
func (dt *DecisionTrace) CountKind(k DecisionKind) int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	n := 0
	for _, d := range dt.decisions {
		if d.Kind == k {
			n++
		}
	}
	return n
}

// Format renders the decision trace as the EXPLAIN TRACE text tree:
// interesting orders first, then every MEMO entry grouped by DP level with
// its candidate count and pruning events, then the final cost comparison.
// The rendering is deterministic — entries sort by (level, label) and
// within-entry order follows the enumeration.
func (dt *DecisionTrace) Format() string {
	dt.mu.Lock()
	decisions := append([]Decision(nil), dt.decisions...)
	candidates := make(map[string]int, len(dt.candidates))
	for k, v := range dt.candidates {
		candidates[k] = v
	}
	dt.mu.Unlock()

	var b strings.Builder
	b.WriteString("optimizer decision trace\n")

	// Table 1: interesting order expressions.
	var orders []Decision
	byEntry := map[string][]Decision{}
	var finals []Decision
	seenOrderFired := map[string]bool{}
	for _, d := range decisions {
		switch d.Kind {
		case DecisionInterestingOrder:
			orders = append(orders, d)
		case DecisionFinalCost:
			finals = append(finals, d)
		case DecisionOrderFired:
			// The generator fires once per candidate pair; the trace needs
			// each (entry, expression) pairing once.
			key := d.Entry + "|" + d.Note
			if seenOrderFired[key] {
				continue
			}
			seenOrderFired[key] = true
			byEntry[d.Entry] = append(byEntry[d.Entry], d)
		default:
			byEntry[d.Entry] = append(byEntry[d.Entry], d)
		}
	}
	if len(orders) > 0 {
		b.WriteString("interesting orders:\n")
		for _, d := range orders {
			fmt.Fprintf(&b, "  %s  [%s]\n", d.Plan, d.Note)
		}
	}

	// MEMO entries grouped by DP level.
	type entryKey struct {
		level int
		label string
	}
	var keys []entryKey
	seen := map[string]bool{}
	addKey := func(level int, label string) {
		if label == "" || seen[label] {
			return
		}
		seen[label] = true
		keys = append(keys, entryKey{level, label})
	}
	for label := range candidates {
		addKey(levelOf(label), label)
	}
	for label, ds := range byEntry {
		lv := levelOf(label)
		for _, d := range ds {
			if d.Level > 0 {
				lv = d.Level
				break
			}
		}
		addKey(lv, label)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		return keys[i].label < keys[j].label
	})
	lastLevel := -1
	for _, k := range keys {
		if k.level != lastLevel {
			fmt.Fprintf(&b, "level %d:\n", k.level)
			lastLevel = k.level
		}
		ds := byEntry[k.label]
		var pruned, evicted, protected, kept int
		for _, d := range ds {
			switch d.Kind {
			case DecisionPruned:
				pruned++
			case DecisionEvicted:
				evicted++
			case DecisionProtected:
				protected++
			case DecisionKept:
				kept++
			}
		}
		fmt.Fprintf(&b, "  entry %s: candidates=%d pruned=%d evicted=%d protected=%d kept=%d\n",
			k.label, candidates[k.label], pruned, evicted, protected, kept)
		for _, d := range ds {
			writeDecision(&b, "    ", d)
		}
	}

	if len(finals) > 0 {
		b.WriteString("final:\n")
		for _, d := range finals {
			writeDecision(&b, "  ", d)
		}
	}
	return b.String()
}

// writeDecision renders one event line.
func writeDecision(b *strings.Builder, indent string, d Decision) {
	fmt.Fprintf(b, "%s%s: %s", indent, d.Kind, d.Plan)
	if d.Rival != "" {
		verb := "vs"
		switch d.Kind {
		case DecisionPruned:
			verb = "by"
		case DecisionEvicted:
			verb = "by"
		}
		fmt.Fprintf(b, "  %s %s", verb, d.Rival)
	}
	if d.Note != "" {
		fmt.Fprintf(b, "  [%s]", d.Note)
	}
	if d.CrossoverK > 0 {
		fmt.Fprintf(b, "  k*=%.1f", d.CrossoverK)
	}
	b.WriteByte('\n')
}

// levelOf derives a MEMO entry's DP level from its label (tables are
// comma-separated).
func levelOf(label string) int {
	if label == "" || label == "final" {
		return 0
	}
	return strings.Count(label, ",") + 1
}

// crossoverFor computes Section 3.3's k* for a pruning comparison when the
// pair is a rank/sort pairing: exactly one of the plans is rooted in a
// rank-join (k-sensitive cost) and the other is blocking (k-constant cost).
// Any other pairing returns 0 ("no crossover applies").
func crossoverFor(a, b *plan.Node) float64 {
	ar, br := a.Op.IsRankJoin(), b.Op.IsRankJoin()
	switch {
	case ar && !br && !b.Props.Pipelined:
		return CrossoverK(b, a)
	case br && !ar && !a.Props.Pipelined:
		return CrossoverK(a, b)
	}
	return 0
}

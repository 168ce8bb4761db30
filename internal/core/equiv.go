package core

import (
	"slices"
	"sort"

	"rankopt/internal/expr"
	"rankopt/internal/logical"
)

// equivClasses is a union-find over join columns. Predicates A.x = B.y and
// B.y = C.z place A.x, B.y, C.z in one class, implying A.x = C.z: the
// transitive closure enlarges the join space (a chain query can join its
// endpoints first), lets selectivity estimation count each equivalence
// class once instead of multiplying redundant predicates, and lets the
// columns of one class share one order (see optimizer.intern).
type equivClasses struct {
	parent map[expr.ColRef]expr.ColRef
}

func newEquivClasses(joins []logical.JoinPred) *equivClasses {
	e := &equivClasses{parent: map[expr.ColRef]expr.ColRef{}}
	for _, j := range joins {
		e.union(j.L, j.R)
	}
	return e
}

// find walks to the class root without path compression: lookups stay pure
// reads. A column in no class is its own root.
func (e *equivClasses) find(c expr.ColRef) expr.ColRef {
	for {
		p, ok := e.parent[c]
		if !ok || p == c {
			return c
		}
		c = p
	}
}

func (e *equivClasses) union(a, b expr.ColRef) {
	if _, ok := e.parent[a]; !ok {
		e.parent[a] = a
	}
	if _, ok := e.parent[b]; !ok {
		e.parent[b] = b
	}
	ra, rb := e.find(a), e.find(b)
	if ra != rb {
		e.parent[rb] = ra
	}
}

// classOf returns the class representative of a column, and false if the
// column participates in no join predicate.
func (e *equivClasses) classOf(c expr.ColRef) (expr.ColRef, bool) {
	if _, ok := e.parent[c]; !ok {
		return expr.ColRef{}, false
	}
	return e.find(c), true
}

// sameClass reports whether two columns are join-equivalent.
func (e *equivClasses) sameClass(a, b expr.ColRef) bool {
	ca, oka := e.classOf(a)
	cb, okb := e.classOf(b)
	return oka && okb && ca == cb
}

// closure returns the original predicates plus every implied cross-table
// equality, deduplicated by unordered column pair, and separately the
// implied same-table equalities: a class holding several columns of one
// table equates each of them with that table's first, which no join can
// apply, so the caller filters the table on them.
func (e *equivClasses) closure(joins []logical.JoinPred) (cross, same []logical.JoinPred) {
	seen := map[string]bool{}
	keyOf := func(a, b expr.ColRef) string {
		ka, kb := a.String(), b.String()
		if ka > kb {
			ka, kb = kb, ka
		}
		return ka + "=" + kb
	}
	cross = make([]logical.JoinPred, 0, len(joins))
	for _, j := range joins {
		k := keyOf(j.L, j.R)
		if !seen[k] {
			seen[k] = true
			cross = append(cross, j)
		}
	}
	// Group columns by class, walking them in sorted order so the implied
	// predicates (and therefore the representative each class keeps in
	// reduceByClass) come out identical on every run — map iteration order
	// must never leak into plan choice.
	cols := make([]expr.ColRef, 0, len(e.parent))
	for c := range e.parent {
		cols = append(cols, c)
	}
	sort.Slice(cols, func(i, j int) bool { return cols[i].String() < cols[j].String() })
	byClass := map[expr.ColRef][]expr.ColRef{}
	var roots []expr.ColRef
	for _, c := range cols {
		root := e.find(c)
		if _, ok := byClass[root]; !ok {
			roots = append(roots, root)
		}
		byClass[root] = append(byClass[root], c)
	}
	for _, root := range roots {
		cols := byClass[root]
		for i := 0; i < len(cols); i++ {
			for j := i + 1; j < len(cols); j++ {
				if cols[i].Table == cols[j].Table {
					continue
				}
				k := keyOf(cols[i], cols[j])
				if !seen[k] {
					seen[k] = true
					cross = append(cross, logical.JoinPred{L: cols[i], R: cols[j]})
				}
			}
		}
		first := map[string]expr.ColRef{}
		for _, c := range cols {
			if f, ok := first[c.Table]; ok {
				same = append(same, logical.JoinPred{L: f, R: c})
			} else {
				first[c.Table] = c
			}
		}
	}
	return cross, same
}

// reduceByClass keeps one predicate per equivalence class (the rest are
// implied once that one holds), so join selectivity multiplies independent
// classes only and executed plans carry no redundant comparisons.
func (e *equivClasses) reduceByClass(preds []logical.JoinPred) []logical.JoinPred {
	var seen []expr.ColRef
	var out []logical.JoinPred
	for _, p := range preds {
		cls, ok := e.classOf(p.L)
		if ok && slices.Contains(seen, cls) {
			continue
		}
		if ok {
			seen = append(seen, cls)
		}
		out = append(out, p)
	}
	return out
}

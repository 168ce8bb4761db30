package core

import (
	"sort"

	"rankopt/internal/expr"
	"rankopt/internal/logical"
)

// equivClasses is a union-find over join columns. Predicates A.x = B.y and
// B.y = C.z place A.x, B.y, C.z in one class, implying A.x = C.z: the
// transitive closure enlarges the join space (a chain query can join its
// endpoints first) and lets selectivity estimation count each equivalence
// class once instead of multiplying redundant predicates.
type equivClasses struct {
	parent map[string]string
	col    map[string]expr.ColRef
}

func newEquivClasses(joins []logical.JoinPred) *equivClasses {
	e := &equivClasses{parent: map[string]string{}, col: map[string]expr.ColRef{}}
	for _, j := range joins {
		e.union(j.L, j.R)
	}
	return e
}

func (e *equivClasses) key(c expr.ColRef) string { return c.String() }

// find walks to the class root without path compression: lookups stay pure
// reads.
func (e *equivClasses) find(k string) string {
	for {
		p, ok := e.parent[k]
		if !ok || p == k {
			return k
		}
		k = p
	}
}

func (e *equivClasses) union(a, b expr.ColRef) {
	ka, kb := e.key(a), e.key(b)
	e.col[ka], e.col[kb] = a, b
	if _, ok := e.parent[ka]; !ok {
		e.parent[ka] = ka
	}
	if _, ok := e.parent[kb]; !ok {
		e.parent[kb] = kb
	}
	ra, rb := e.find(ka), e.find(kb)
	if ra != rb {
		e.parent[rb] = ra
	}
}

// classOf returns the class representative of a column, or "" if the column
// participates in no join predicate.
func (e *equivClasses) classOf(c expr.ColRef) string {
	k := e.key(c)
	if _, ok := e.parent[k]; !ok {
		return ""
	}
	return e.find(k)
}

// sameClass reports whether two columns are join-equivalent.
func (e *equivClasses) sameClass(a, b expr.ColRef) bool {
	ca, cb := e.classOf(a), e.classOf(b)
	return ca != "" && ca == cb
}

// closure returns the original predicates plus every implied cross-table
// equality, deduplicated by unordered column pair.
func (e *equivClasses) closure(joins []logical.JoinPred) []logical.JoinPred {
	seen := map[string]bool{}
	keyOf := func(a, b expr.ColRef) string {
		ka, kb := a.String(), b.String()
		if ka > kb {
			ka, kb = kb, ka
		}
		return ka + "=" + kb
	}
	out := make([]logical.JoinPred, 0, len(joins))
	for _, j := range joins {
		k := keyOf(j.L, j.R)
		if !seen[k] {
			seen[k] = true
			out = append(out, j)
		}
	}
	// Group columns by class, walking keys in sorted order so the implied
	// predicates (and therefore the representative each class keeps in
	// reduceByClass) come out identical on every run — map iteration order
	// must never leak into plan choice.
	keys := make([]string, 0, len(e.parent))
	for k := range e.parent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	byClass := map[string][]expr.ColRef{}
	var roots []string
	for _, k := range keys {
		root := e.find(k)
		if _, ok := byClass[root]; !ok {
			roots = append(roots, root)
		}
		byClass[root] = append(byClass[root], e.col[k])
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
					out = append(out, logical.JoinPred{L: cols[i], R: cols[j]})
				}
			}
		}
	}
	return out
}

// reduceByClass keeps one predicate per equivalence class (the rest are
// implied once that one holds), so join selectivity multiplies independent
// classes only and executed plans carry no redundant comparisons.
func (e *equivClasses) reduceByClass(preds []logical.JoinPred) []logical.JoinPred {
	seen := map[string]bool{}
	var out []logical.JoinPred
	for _, p := range preds {
		cls := e.classOf(p.L)
		if cls == "" {
			out = append(out, p)
			continue
		}
		if !seen[cls] {
			seen[cls] = true
			out = append(out, p)
		}
	}
	return out
}

package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan tree in a pg-style indented format with operator
// names, key details, estimated cardinality, cost, and properties. The root
// is priced at its whole output and every other node at the demand
// PropagateK gives it there, which is the demand its parent's CostFrom
// charges it: a node's printed cost is the share of its parent's cost it
// stands for.
func Explain(n *Node) string {
	var b strings.Builder
	explainAt(&b, n, 0, demands(n, n.Card))
	return b.String()
}

func explainAt(b *strings.Builder, n *Node, depth int, demand map[*Node]float64) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s%s  (card=%.0f cost=%.1f %s)\n",
		indent, n.Op, detail(n), n.Card, n.Cost(demand[n]), propsStr(n))
	for _, c := range n.Children {
		explainAt(b, c, depth+1, demand)
	}
}

func detail(n *Node) string {
	switch n.Op {
	case OpSeqScan:
		return "(" + n.Table + ")"
	case OpIndexScan:
		dir := "asc"
		if n.IndexDesc {
			dir = "desc"
		}
		name := "?"
		if n.Index != nil {
			name = n.Index.Name
		}
		return fmt.Sprintf("(%s via %s %s)", n.Table, name, dir)
	case OpSort:
		keys := make([]string, len(n.SortKeys))
		for i, k := range n.SortKeys {
			d := ""
			if k.Desc {
				d = " desc"
			}
			keys[i] = k.E.String() + d
		}
		return "(" + strings.Join(keys, ", ") + ")"
	case OpFilter:
		return "(" + n.Pred.String() + ")"
	case OpNLJ, OpHashJoin, OpMergeJoin, OpHRJN, OpNRJN:
		var parts []string
		for _, j := range n.EqPreds {
			parts = append(parts, j.String())
		}
		if n.Pred != nil {
			parts = append(parts, n.Pred.String())
		}
		if len(parts) == 0 {
			return ""
		}
		return "(" + strings.Join(parts, " AND ") + ")"
	case OpINLJ:
		var parts []string
		for _, j := range n.EqPreds {
			parts = append(parts, j.String())
		}
		name := "?"
		if n.Index != nil {
			name = n.Index.Name
		}
		return fmt.Sprintf("(%s; inner %s via %s)", strings.Join(parts, " AND "), n.Table, name)
	case OpLimit:
		return fmt.Sprintf("(%d)", n.K)
	case OpTopK:
		return fmt.Sprintf("(%s, k=%d)", n.Score.String(), n.K)
	case OpRankAgg:
		var tabs []string
		for _, in := range n.TAInputs {
			tabs = append(tabs, in.Rel.Name)
		}
		return fmt.Sprintf("(TA over %s, k=%d)", strings.Join(tabs, ", "), n.K)
	case OpIndexRange:
		lo, hi := "-inf", "+inf"
		if n.HasLo {
			lo = n.RangeLo.String()
		}
		if n.HasHi {
			hi = n.RangeHi.String()
		}
		name := "?"
		if n.Index != nil {
			name = n.Index.Name
		}
		return fmt.Sprintf("(%s via %s, key in [%s, %s])", n.Table, name, lo, hi)
	case OpRank:
		return "(" + n.Score.String() + ")"
	case OpProject:
		items := make([]string, len(n.Items))
		for i, it := range n.Items {
			items[i] = it.As
		}
		return "(" + strings.Join(items, ", ") + ")"
	case OpAnyK:
		var parts []string
		for i := range n.AnyKLKeys {
			parts = append(parts, n.AnyKLKeys[i].String()+" = "+n.AnyKRKeys[i].String())
		}
		if len(parts) == 0 {
			return ""
		}
		return "(" + strings.Join(parts, " AND ") + ")"
	case OpHashAgg, OpSortAgg:
		var parts []string
		for _, g := range n.GroupBy {
			parts = append(parts, g.String())
		}
		for _, a := range n.Aggs {
			parts = append(parts, a.String())
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return ""
}

func propsStr(n *Node) string {
	s := n.Props.Order.Key()
	if n.Props.Pipelined {
		s += " pipelined"
	}
	return s
}

// Summary renders a plan in one line, operators in prefix form with compact
// leaf access paths — the shape optimizer decision traces print when naming
// the plans a pruning decision compared.
func Summary(n *Node) string {
	var b strings.Builder
	summarize(&b, n)
	return b.String()
}

func summarize(b *strings.Builder, n *Node) {
	b.WriteString(n.Op.String())
	switch n.Op {
	case OpSeqScan:
		fmt.Fprintf(b, "(%s)", n.Table)
		return
	case OpIndexScan, OpIndexRange:
		dir := "asc"
		if n.IndexDesc {
			dir = "desc"
		}
		name := "?"
		if n.Index != nil {
			name = n.Index.Name
		}
		fmt.Fprintf(b, "(%s:%s %s)", n.Table, name, dir)
		return
	case OpINLJ:
		b.WriteByte('(')
		summarize(b, n.Left())
		name := "?"
		if n.Index != nil {
			name = n.Index.Name
		}
		fmt.Fprintf(b, ", %s:%s)", n.Table, name)
		return
	case OpRankAgg:
		var tabs []string
		for _, in := range n.TAInputs {
			tabs = append(tabs, in.Rel.Name)
		}
		fmt.Fprintf(b, "(%s)", strings.Join(tabs, ","))
		return
	}
	if len(n.Children) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteString(", ")
		}
		summarize(b, c)
	}
	b.WriteByte(')')
}

package plan

import (
	"fmt"
	"math"

	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
)

// Compile lowers a physical plan into an executable operator tree bound to
// the given catalog: CompileTree's operators under the zero Config, without
// a Tree or its budget.
func Compile(cat *catalog.Catalog, n *Node) (exec.Operator, error) {
	return (&compiler{cat: cat}).compile(n)
}

// Config collects the compilation knobs for CompileTree; the zero value
// compiles exactly like Compile.
type Config struct {
	// Analyze, when set, threads an exec.Analyzed stats collector between
	// every pair of operators (EXPLAIN ANALYZE) and records the node→collector
	// mapping in it. The per-tuple overhead is one counter increment per
	// operator boundary plus a 1-in-32 wall-time sample; the per-query
	// overhead is one small wrapper allocation per plan node.
	Analyze *AnalyzedPlan
	// ScalarRef compiles the scalar reference executor: operators with a
	// vectorized internal phase fall back to their pre-batch per-tuple form
	// (the hash join's build and table layout), Sorts never walk an index
	// nor key a lent heap from its column images, and rank operators read
	// their inputs on the tuple path rather than from column images
	// (exec.TuplePath). Combined with a per-tuple drain
	// this is the independent side of the differential oracle.
	ScalarRef bool
}

type compiler struct {
	cat *catalog.Catalog
	cfg Config
	// tree, when set, records the operators CompileTree re-arms and reports,
	// and budget is its budget, wired into every buffering operator
	// (rank-join and TA queues and hash tables, TopK heaps, sorts, hash-join
	// build tables, nested-loops inners, hash-aggregate groups) so the whole
	// tree draws from one per-session allowance.
	tree   *Tree
	budget *exec.Budget
}

func (c *compiler) compile(n *Node) (exec.Operator, error) {
	op, err := c.build(n)
	if err != nil {
		return nil, err
	}
	if c.tree != nil {
		c.tree.note(n, op)
	}
	if c.cfg.Analyze != nil {
		// The collector replaces the built operator before it is wired into
		// its parent.
		op = c.cfg.Analyze.collect(n, op)
	}
	return op, nil
}

func (c *compiler) build(n *Node) (exec.Operator, error) {
	switch n.Op {
	case OpSeqScan:
		tab, err := c.cat.Table(n.Table)
		if err != nil {
			return nil, err
		}
		return exec.NewSeqScan(tab.Rel), nil

	case OpIndexScan:
		tab, err := c.cat.Table(n.Table)
		if err != nil {
			return nil, err
		}
		if n.Index == nil {
			return nil, fmt.Errorf("plan: index scan on %s without index", n.Table)
		}
		return exec.NewIndexScan(tab.Rel, n.Index, n.IndexDesc), nil

	case OpSort:
		in, err := c.compile(n.Input())
		if err != nil {
			return nil, err
		}
		// The scalar reference sorts a copy, keyed on the tuples.
		s := exec.NewSort(c.rankInput(in), n.SortKeys...)
		s.Budget = c.budget
		s.SizeHint = int(n.Input().Card)
		s.Index = c.indexOrder(n)
		return s, nil

	case OpFilter:
		in, err := c.compile(n.Input())
		if err != nil {
			return nil, err
		}
		return exec.NewFilter(in, n.Pred), nil

	case OpLimit:
		in, err := c.compile(n.Input())
		if err != nil {
			return nil, err
		}
		return exec.NewLimit(in, n.K), nil

	case OpRank:
		in, err := c.compile(n.Input())
		if err != nil {
			return nil, err
		}
		return exec.NewRankAssign(in, n.Score), nil

	case OpProject:
		in, err := c.compile(n.Input())
		if err != nil {
			return nil, err
		}
		return exec.NewProject(in, n.Items...), nil

	case OpHashAgg:
		in, err := c.compile(n.Input())
		if err != nil {
			return nil, err
		}
		h := exec.NewHashAggregate(in, n.GroupBy, n.Aggs)
		h.Budget = c.budget
		return h, nil

	case OpSortAgg:
		in, err := c.compile(n.Input())
		if err != nil {
			return nil, err
		}
		return exec.NewSortedAggregate(in, n.GroupBy, n.Aggs), nil

	case OpTopK:
		in, err := c.compile(n.Input())
		if err != nil {
			return nil, err
		}
		t := exec.NewTopK(in, n.Score, n.K)
		t.Budget = c.budget
		return t, nil

	case OpRankAgg:
		ta, err := exec.NewTA(n.TAInputs)
		if err != nil {
			return nil, err
		}
		ta.Budget = c.budget
		return ta, nil

	case OpIndexRange:
		tab, err := c.cat.Table(n.Table)
		if err != nil {
			return nil, err
		}
		if n.Index == nil {
			return nil, fmt.Errorf("plan: index range scan on %s without index", n.Table)
		}
		return exec.NewIndexRangeScan(tab.Rel, n.Index, n.RangeLo, n.RangeHi, n.HasLo, n.HasHi), nil

	case OpNLJ:
		l, r, err := c.children(n)
		if err != nil {
			return nil, err
		}
		j := exec.NewNestedLoopsJoin(l, r, n.fullJoinPred())
		j.Budget = c.budget
		return j, nil

	case OpINLJ:
		l, err := c.compile(n.Left())
		if err != nil {
			return nil, err
		}
		tab, err := c.cat.Table(n.Table)
		if err != nil {
			return nil, err
		}
		if n.Index == nil {
			return nil, fmt.Errorf("plan: index NL join on %s without index", n.Table)
		}
		if len(n.EqPreds) == 0 {
			return nil, fmt.Errorf("plan: index NL join without equi-predicate")
		}
		return exec.NewIndexNLJoin(l, tab.Rel, n.Index, n.EqPreds[0].L, n.residualAfterPrimary()), nil

	case OpHashJoin:
		l, r, err := c.children(n)
		if err != nil {
			return nil, err
		}
		if len(n.EqPreds) == 0 {
			return nil, fmt.Errorf("plan: hash join without equi-predicate")
		}
		hj := exec.NewHashJoin(l, r, n.EqPreds[0].L, n.EqPreds[0].R, n.residualAfterPrimary())
		hj.Budget = c.budget
		hj.BuildSizeHint = int(n.Left().Card)
		hj.PerTupleBuild = c.cfg.ScalarRef
		return hj, nil

	case OpMergeJoin:
		l, r, err := c.children(n)
		if err != nil {
			return nil, err
		}
		if len(n.EqPreds) == 0 {
			return nil, fmt.Errorf("plan: merge join without equi-predicate")
		}
		return exec.NewSortMergeJoin(l, r, n.EqPreds[0].L, n.EqPreds[0].R, n.residualAfterPrimary()), nil

	case OpHRJN:
		l, r, err := c.rankChildren(n)
		if err != nil {
			return nil, err
		}
		if len(n.EqPreds) == 0 {
			return nil, fmt.Errorf("plan: HRJN without equi-predicate")
		}
		h := exec.NewHRJN(l, r, n.LScore, n.RScore,
			n.EqPreds[0].L, n.EqPreds[0].R, n.residualAfterPrimary())
		h.Budget = c.budget
		return h, nil

	case OpNRJN:
		l, r, err := c.children(n)
		if err != nil {
			return nil, err
		}
		nr := exec.NewNRJN(l, r, n.LScore, n.RScore, n.fullJoinPred())
		if len(n.EqPreds) > 0 {
			nr.LeftKey, nr.RightKey = n.EqPreds[0].L, n.EqPreds[0].R
		}
		nr.Budget = c.budget
		return nr, nil

	case OpAnyK:
		ins := make([]exec.Operator, len(n.Children))
		for i, ch := range n.Children {
			in, err := c.compile(ch)
			if err != nil {
				return nil, err
			}
			ins[i] = c.rankInput(in)
		}
		ak, err := exec.NewAnyK(ins, n.AnyKScores, n.AnyKLKeys, n.AnyKRKeys)
		if err != nil {
			return nil, err
		}
		ak.Budget = c.budget
		return ak, nil

	default:
		return nil, fmt.Errorf("plan: cannot compile operator %v", n.Op)
	}
}

// indexOrder returns the index whose order is Sort n's own, or nil: n has one
// key, that key is column c of the table its bare SeqScan input reads or one
// finite, positive multiple of c, and the catalog indexes c. The scalar
// reference executor keeps sorting, so the oracle compares the two.
func (c *compiler) indexOrder(n *Node) *exec.IndexOrder {
	in := n.Input()
	if c.cfg.ScalarRef || len(n.SortKeys) != 1 || in.Op != OpSeqScan {
		return nil
	}
	col, w, ok := weightedColumn(n.SortKeys[0].E)
	if !ok {
		return nil
	}
	tab, err := c.cat.Table(in.Table)
	if err != nil {
		return nil
	}
	sch := tab.Rel.Schema()
	pos, err := sch.Resolve(col.Table, col.Name)
	if err != nil {
		return nil
	}
	idx := c.cat.IndexOn(in.Table, sch.Column(pos).Name)
	if idx == nil {
		return nil
	}
	return &exec.IndexOrder{Idx: idx, Rel: tab.Rel, Col: pos, Weight: w}
}

// weightedColumn splits a sort key that is a column, or a one-term score sum
// w*column with w finite and positive, into the column and its weight.
func weightedColumn(e expr.Expr) (expr.ColRef, float64, bool) {
	switch k := e.(type) {
	case expr.ColRef:
		return k, 1, true
	case expr.ScoreSum:
		if len(k.Terms) != 1 {
			break
		}
		col, ok := k.Terms[0].E.(expr.ColRef)
		w := k.Terms[0].Weight
		return col, w, ok && w > 0 && w <= math.MaxFloat64
	}
	return expr.ColRef{}, 0, false
}

func (c *compiler) children(n *Node) (exec.Operator, exec.Operator, error) {
	l, err := c.compile(n.Left())
	if err != nil {
		return nil, nil, err
	}
	r, err := c.compile(n.Right())
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

// rankChildren compiles a binary rank operator's inputs (see rankInput).
func (c *compiler) rankChildren(n *Node) (exec.Operator, exec.Operator, error) {
	l, r, err := c.children(n)
	if err != nil {
		return nil, nil, err
	}
	return c.rankInput(l), c.rankInput(r), nil
}

// rankInput is in as a rank operator or a Sort reads it: the scalar
// reference reads every input on the tuple path, so the oracle compares that
// with the column-image reads of stored row sources.
func (c *compiler) rankInput(in exec.Operator) exec.Operator {
	if c.cfg.ScalarRef {
		return exec.TuplePath(in)
	}
	return in
}

// fullJoinPred combines all equi-predicates and the residual into one
// expression (for operators that evaluate predicates directly).
func (n *Node) fullJoinPred() expr.Expr {
	conjs := make([]expr.Expr, 0, len(n.EqPreds)+1)
	for _, j := range n.EqPreds {
		conjs = append(conjs, expr.Bin(expr.OpEq, j.L, j.R))
	}
	conjs = append(conjs, n.Pred)
	return expr.And(conjs...)
}

// residualAfterPrimary combines every equi-predicate beyond the first with
// the residual predicate (for operators that handle the primary key
// natively).
func (n *Node) residualAfterPrimary() expr.Expr {
	conjs := make([]expr.Expr, 0, len(n.EqPreds))
	for _, j := range n.EqPreds[1:] {
		conjs = append(conjs, expr.Bin(expr.OpEq, j.L, j.R))
	}
	conjs = append(conjs, n.Pred)
	return expr.And(conjs...)
}

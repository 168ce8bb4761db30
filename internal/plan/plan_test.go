package plan

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/costmodel"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/workload"
)

var params = costmodel.Default()

// env bundles a generated two-table workload and plan-building helpers.
type env struct {
	cat   *catalog.Catalog
	names []string
	n     int
	sel   float64
}

func newEnv(t *testing.T, m, n int, sel float64) *env {
	t.Helper()
	cat, names := workload.RankedSet(m, workload.RankedConfig{N: n, Selectivity: sel, Seed: 1234})
	return &env{cat: cat, names: names, n: n, sel: sel}
}

// scoreScan builds an IndexScan node descending on the table's score.
func (e *env) scoreScan(t *testing.T, name string) *Node {
	t.Helper()
	idx := e.cat.IndexOn(name, "score")
	if idx == nil {
		t.Fatalf("no score index on %s", name)
	}
	return &Node{
		Op:        OpIndexScan,
		Table:     name,
		Index:     idx,
		IndexDesc: true,
		Card:      float64(e.cat.Cardinality(name)),
		LSlab:     e.cat.ColStats(name, "score").Slab,
		P:         &params,
		Props:     Props{Order: RankOrder(name), Pipelined: true},
	}
}

// seqScan builds a plain heap scan node.
func (e *env) seqScan(name string) *Node {
	return &Node{
		Op:    OpSeqScan,
		Table: name,
		Card:  float64(e.cat.Cardinality(name)),
		P:     &params,
		Props: Props{Order: NoOrder, Pipelined: true},
	}
}

// hrjn joins two ranked-scan children.
func (e *env) hrjn(l, r *Node, lt, rt string) *Node {
	return &Node{
		Op:       OpHRJN,
		Children: []*Node{l, r},
		EqPreds:  []logical.JoinPred{{L: expr.Col(lt, "key"), R: expr.Col(rt, "key")}},
		LScore:   expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col(lt, "score")}),
		RScore:   expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col(rt, "score")}),
		Card:     e.sel * l.Card * r.Card,
		Sel:      e.sel,
		LLeaves:  1, RLeaves: 1,
		LSlab: e.cat.ColStats(lt, "score").Slab,
		RSlab: e.cat.ColStats(rt, "score").Slab,
		P:     &params,
		Props: Props{Order: RankOrder(lt, rt), Pipelined: true},
	}
}

func TestOrderPropSemantics(t *testing.T) {
	dc := NoOrder
	col := ColOrder(expr.Col("A", "c1"), false)
	colD := ColOrder(expr.Col("A", "c1"), true)
	rank := RankOrder("B", "A")
	rank2 := RankOrder("A", "B")

	if !rank.Equal(rank2) {
		t.Error("rank order must canonicalize table sets")
	}
	if col.Equal(colD) {
		t.Error("direction matters")
	}
	if dc.Equal(col) || col.Equal(rank) {
		t.Error("orders of different kinds must differ")
	}
	if dc.Key() != "DC" {
		t.Errorf("DC key = %q", dc.Key())
	}
}

func TestNodeTablesAndWalk(t *testing.T) {
	e := newEnv(t, 2, 100, 0.1)
	j := e.hrjn(e.scoreScan(t, "T1"), e.scoreScan(t, "T2"), "T1", "T2")
	ts := j.Tables()
	if len(ts) != 2 || ts[0] != "T1" || ts[1] != "T2" {
		t.Fatalf("Tables = %v", ts)
	}
	if j.CountOps(OpIndexScan) != 2 || j.CountOps(OpHRJN) != 1 || j.CountOps(OpSort) != 0 {
		t.Error("CountOps mismatch")
	}
}

func TestScanCosts(t *testing.T) {
	e := newEnv(t, 1, 10000, 0.01)
	seq := e.seqScan("T1")
	idx := e.scoreScan(t, "T1")
	if seq.Cost(100) >= seq.Cost(10000) {
		t.Error("partial seq scan cheaper than full")
	}
	// Unclustered index full scan is far pricier than seq scan.
	if idx.Cost(10000) <= seq.Cost(10000) {
		t.Error("full unclustered index scan should cost more than seq scan")
	}
	// But for tiny k the index scan wins.
	if idx.Cost(10) >= seq.Cost(10000) {
		t.Error("short index scan should beat full heap scan")
	}
}

func TestSortNodeBlockingCost(t *testing.T) {
	e := newEnv(t, 1, 50000, 0.01)
	s := &Node{
		Op:       OpSort,
		Children: []*Node{e.seqScan("T1")},
		SortKeys: []exec.SortKey{{E: expr.Col("T1", "score"), Desc: true}},
		Card:     50000,
		P:        &params,
		Props:    Props{Order: RankOrder("T1")},
	}
	if s.Cost(1) != s.Cost(50000) {
		t.Error("sort cost must be k-independent (blocking)")
	}
	if s.Cost(1) <= e.seqScan("T1").Cost(50000) {
		t.Error("sort must cost more than its input scan")
	}
}

func TestHRJNCostGrowsWithK(t *testing.T) {
	e := newEnv(t, 2, 10000, 0.01)
	j := e.hrjn(e.scoreScan(t, "T1"), e.scoreScan(t, "T2"), "T1", "T2")
	c10, c100, c1000 := j.Cost(10), j.Cost(100), j.Cost(1000)
	if !(c10 < c100 && c100 < c1000) {
		t.Errorf("HRJN cost must grow with k: %v %v %v", c10, c100, c1000)
	}
}

func TestDepthsClampedToChildren(t *testing.T) {
	e := newEnv(t, 2, 100, 0.5)
	j := e.hrjn(e.scoreScan(t, "T1"), e.scoreScan(t, "T2"), "T1", "T2")
	dL, dR := j.Depths(1e9)
	if dL > 100 || dR > 100 {
		t.Errorf("depths %v/%v exceed child cardinality", dL, dR)
	}
	dL, dR = j.Depths(0)
	if dL < 1 || dR < 1 {
		t.Errorf("degenerate k still needs >= 1 tuple: %v/%v", dL, dR)
	}
	defer func() {
		if recover() == nil {
			t.Error("Depths on scan must panic")
		}
	}()
	e.seqScan("T1").Depths(5)
}

func TestCompileAndRunHRJNPlan(t *testing.T) {
	e := newEnv(t, 2, 2000, 0.01)
	j := e.hrjn(e.scoreScan(t, "T1"), e.scoreScan(t, "T2"), "T1", "T2")
	limit := &Node{Op: OpLimit, Children: []*Node{j}, K: 10, Card: 10, P: &params,
		Props: j.Props}
	op, err := Compile(e.cat, limit)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("plan produced %d tuples", len(got))
	}
	// Verify against join-then-sort reference.
	t1, _ := e.cat.Table("T1")
	t2, _ := e.cat.Table("T2")
	var ref []float64
	for _, a := range t1.Rel.Tuples() {
		for _, b := range t2.Rel.Tuples() {
			if a[1].Equal(b[1]) {
				ref = append(ref, a[2].AsFloat()+b[2].AsFloat())
			}
		}
	}
	for i := 1; i < len(ref); i++ {
		for j := i; j > 0 && ref[j] > ref[j-1]; j-- {
			ref[j], ref[j-1] = ref[j-1], ref[j]
		}
	}
	for i, tup := range got {
		s := tup[2].AsFloat() + tup[5].AsFloat()
		if math.Abs(s-ref[i]) > 1e-9 {
			t.Fatalf("rank %d: score %v, want %v", i, s, ref[i])
		}
	}
}

func TestCompileSortPlan(t *testing.T) {
	e := newEnv(t, 2, 500, 0.05)
	score := expr.Sum(
		expr.ScoreTerm{Weight: 1, E: expr.Col("T1", "score")},
		expr.ScoreTerm{Weight: 1, E: expr.Col("T2", "score")},
	)
	hj := &Node{
		Op:       OpHashJoin,
		Children: []*Node{e.seqScan("T1"), e.seqScan("T2")},
		EqPreds:  []logical.JoinPred{{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")}},
		Card:     e.sel * 500 * 500,
		Sel:      e.sel,
		P:        &params,
	}
	sortNode := &Node{
		Op:       OpSort,
		Children: []*Node{hj},
		SortKeys: []exec.SortKey{{E: score, Desc: true}},
		Card:     hj.Card,
		P:        &params,
		Props:    Props{Order: RankOrder("T1", "T2")},
	}
	op, err := Compile(e.cat, sortNode)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	// Descending combined score.
	prev := math.Inf(1)
	for _, tup := range got {
		s := tup[2].AsFloat() + tup[5].AsFloat()
		if s > prev+1e-9 {
			t.Fatal("sort plan output out of order")
		}
		prev = s
	}
}

func TestCompileErrors(t *testing.T) {
	e := newEnv(t, 1, 10, 0.1)
	bad := &Node{Op: OpSeqScan, Table: "ZZ", P: &params}
	if _, err := Compile(e.cat, bad); err == nil {
		t.Error("unknown table must fail")
	}
	noIdx := &Node{Op: OpIndexScan, Table: "T1", P: &params}
	if _, err := Compile(e.cat, noIdx); err == nil {
		t.Error("index scan without index must fail")
	}
	noKey := &Node{Op: OpHashJoin, Children: []*Node{e.seqScan("T1"), e.seqScan("T1")}, P: &params}
	if _, err := Compile(e.cat, noKey); err == nil {
		t.Error("hash join without keys must fail")
	}
}

func TestExplainOutput(t *testing.T) {
	e := newEnv(t, 2, 1000, 0.01)
	j := e.hrjn(e.scoreScan(t, "T1"), e.scoreScan(t, "T2"), "T1", "T2")
	out := Explain(j)
	for _, want := range []string{"HRJN", "IndexScan", "T1.key = T2.key", "rank:T1,T2", "pipelined"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q in:\n%s", want, out)
		}
	}
}

// TestExplainCostsAtPropagatedDemand: Explain prints every node's cost at
// the demand PropagateK gives it, so a node's cost never exceeds its
// parent's, which charges it: under a Limit(10) the hierarchy HRJN is
// costed for 10 rows, not its full output, and an NRJN's inner at its card.
func TestExplainCostsAtPropagatedDemand(t *testing.T) {
	e := newEnv(t, 3, 1000, 0.01)
	j12 := e.hrjn(e.scoreScan(t, "T1"), e.scoreScan(t, "T2"), "T1", "T2")
	top := e.hrjn(j12, e.scoreScan(t, "T3"), "T1", "T3")
	top.LLeaves = 2
	nrjn := *top
	nrjn.Op = OpNRJN
	nrjn.Children = []*Node{j12, e.seqScan("T3")}
	for _, rj := range []*Node{top, &nrjn} {
		limit := &Node{Op: OpLimit, Children: []*Node{rj}, K: 10, Card: 10, P: &params, Props: rj.Props}
		lines := strings.Split(strings.TrimSuffix(Explain(limit), "\n"), "\n")
		want := map[*Node]float64{}
		PropagateK(limit, limit.Card, func(n *Node, k float64) { want[n] = n.Cost(k) })
		i := 0
		var check func(n *Node, parent float64)
		check = func(n *Node, parent float64) {
			if got := fmt.Sprintf("cost=%.1f ", want[n]); !strings.Contains(lines[i], got) {
				t.Errorf("%v line %d %q: want %s", rj.Op, i, lines[i], got)
			}
			if want[n] > parent {
				t.Errorf("%v line %d %q: costs more than its parent's %.1f", rj.Op, i, lines[i], parent)
			}
			i++
			for _, c := range n.Children {
				check(c, want[n])
			}
		}
		check(limit, math.Inf(1))
	}
}

func TestPropagateKThroughRankJoins(t *testing.T) {
	e := newEnv(t, 3, 1000, 0.01)
	j12 := e.hrjn(e.scoreScan(t, "T1"), e.scoreScan(t, "T2"), "T1", "T2")
	top := e.hrjn(j12, e.scoreScan(t, "T3"), "T1", "T3")
	top.LLeaves = 2
	limit := &Node{Op: OpLimit, Children: []*Node{top}, K: 10, Card: 10, P: &params, Props: top.Props}

	kByNode := map[*Node]float64{}
	PropagateK(limit, 10, func(n *Node, k float64) { kByNode[n] = k })
	if kByNode[limit] != 10 || kByNode[top] != 10 {
		t.Fatalf("root k = %v / %v", kByNode[limit], kByNode[top])
	}
	dL, dR := top.Depths(10)
	if kByNode[j12] != dL {
		t.Errorf("child k = %v, want parent's dL %v", kByNode[j12], dL)
	}
	if kByNode[top.Right()] != dR {
		t.Errorf("right leaf k = %v, want dR %v", kByNode[top.Right()], dR)
	}
	// Grandchildren get the child's depths in turn.
	gdL, _ := j12.Depths(dL)
	if kByNode[j12.Left()] != gdL {
		t.Errorf("grandchild k = %v, want %v", kByNode[j12.Left()], gdL)
	}
}

func TestPropagateKThroughBlocking(t *testing.T) {
	e := newEnv(t, 1, 500, 0.1)
	scan := e.seqScan("T1")
	s := &Node{Op: OpSort, Children: []*Node{scan}, Card: 500, P: &params}
	kByNode := map[*Node]float64{}
	PropagateK(s, 5, func(n *Node, k float64) { kByNode[n] = k })
	if kByNode[s] != 5 {
		t.Errorf("sort k = %v", kByNode[s])
	}
	if kByNode[scan] != 500 {
		t.Errorf("blocking sort must demand the full child: %v", kByNode[scan])
	}
}

// TestCompileTreeReportsRankJoins: a compiled tree hands out each rank join
// it compiled with its plan node, as the stats handle sessions read measured
// depths from.
func TestCompileTreeReportsRankJoins(t *testing.T) {
	e := newEnv(t, 2, 300, 0.05)
	j := e.hrjn(e.scoreScan(t, "T1"), e.scoreScan(t, "T2"), "T1", "T2")
	tr, err := CompileTree(e.cat, j, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Joins) != 1 || len(tr.AnyKs) != 0 {
		t.Fatalf("tree reports %d joins and %d any-k operators, want 1 and 0", len(tr.Joins), len(tr.AnyKs))
	}
	if tr.Joins[0].Node != j {
		t.Error("join handle carries the wrong plan node")
	}
	h, ok := tr.Joins[0].Op.(*exec.HRJN)
	if !ok {
		t.Fatalf("join handle is %T, want *exec.HRJN", tr.Joins[0].Op)
	}
	if _, err := exec.CollectK(tr.Root, 5); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.LeftDepth == 0 || st.RightDepth == 0 || st.Emitted != 5 {
		t.Errorf("handle stats after 5 rows = %+v", st)
	}
}

func TestTopKNodeCostAndCompile(t *testing.T) {
	e := newEnv(t, 1, 50000, 0.01)
	scan := e.seqScan("T1")
	score := expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col("T1", "score")})
	topk := &Node{Op: OpTopK, Children: []*Node{scan}, Score: score, K: 10,
		Card: 10, P: &params, Props: Props{Order: RankOrder("T1")}}
	full := &Node{Op: OpSort, Children: []*Node{scan},
		SortKeys: []exec.SortKey{{E: score, Desc: true}},
		Card:     50000, P: &params, Props: Props{Order: RankOrder("T1")}}
	if topk.Cost(10) >= full.Cost(10) {
		t.Errorf("bounded-heap top-k (%v) should undercut full sort (%v)",
			topk.Cost(10), full.Cost(10))
	}
	op, err := Compile(e.cat, topk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("TopK produced %d rows", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i][2].AsFloat() > got[i-1][2].AsFloat() {
			t.Fatal("TopK output out of order")
		}
	}
}

func TestAggregateNodeCompileAndCost(t *testing.T) {
	e := newEnv(t, 1, 2000, 0.01)
	scan := e.seqScan("T1")
	groupBy := []expr.ColRef{expr.Col("T1", "key")}
	aggs := []exec.AggSpec{{Func: exec.AggCount, As: "c"}}
	hash := &Node{Op: OpHashAgg, Children: []*Node{scan}, GroupBy: groupBy,
		Aggs: aggs, Card: 100, P: &params}
	sorted := &Node{Op: OpSortAgg, Children: []*Node{
		{Op: OpSort, Children: []*Node{scan}, SortKeys: []exec.SortKey{{E: groupBy[0]}},
			Card: 2000, P: &params},
	}, GroupBy: groupBy, Aggs: aggs, Card: 100, P: &params}
	if hash.Cost(1) != hash.Cost(100) {
		t.Error("hash aggregate is blocking: k-independent")
	}
	if sorted.Cost(1) >= sorted.Cost(100) {
		t.Error("sorted aggregate streams: cheaper for fewer groups? at least non-decreasing")
	}
	for _, n := range []*Node{hash, sorted} {
		op, err := Compile(e.cat, n)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			t.Fatal("aggregate produced nothing")
		}
	}
}

// TestRankAggHonoursContextAndBudget: a compiled TA plan sees the query
// context and the session budget. The operator is pipelined, so the work —
// and every check — happens in the drain that reads its k rows, not in Open.
func TestRankAggHonoursContextAndBudget(t *testing.T) {
	cat, names := workload.Corpus(workload.CorpusConfig{Objects: 50000, Features: 2, Seed: 17})
	inputs := make([]exec.TAInput, len(names))
	for i, name := range names {
		tab, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = exec.TAInput{
			Rel: tab.Rel, ScoreIdx: cat.IndexOn(name, "score"), IDIdx: cat.IndexOn(name, "id"),
			ScorePos: 1, IDPos: 0, Weight: 0.5,
		}
	}
	// k of half the corpus forces sorted access deep into both lists: tens of
	// milliseconds, far past the 1 ms deadline.
	ta := &Node{Op: OpRankAgg, TAInputs: inputs, K: 25000}
	compile := func(l exec.ResourceLimits) *Tree {
		t.Helper()
		tr, err := CompileTree(cat, ta, Config{})
		if err != nil {
			t.Fatal(err)
		}
		tr.Budget.Arm(l)
		return tr
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exec.CollectKCtx(cancelled, compile(exec.ResourceLimits{}).Root, ta.K); !errors.Is(err, exec.ErrQueryCancelled) {
		t.Errorf("pre-cancelled ctx: got %v, want ErrQueryCancelled", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := exec.CollectKCtx(ctx, compile(exec.ResourceLimits{}).Root, ta.K); !errors.Is(err, exec.ErrDeadlineExceeded) {
		t.Errorf("1 ms deadline: got %v, want ErrDeadlineExceeded", err)
	}

	tr := compile(exec.ResourceLimits{MaxBufferedTuples: 1})
	if _, err := exec.CollectK(tr.Root, ta.K); !errors.Is(err, exec.ErrBudgetExceeded) {
		t.Errorf("1-tuple budget: got %v, want ErrBudgetExceeded", err)
	}
	if n := tr.Budget.Buffered(); n != 0 {
		t.Errorf("failed drain left %d tuples charged", n)
	}
}

// TestCompileSortWalksIndexImage: the compiler hands a Sort the index in its
// order exactly when the Sort has one key, that key is an indexed column of
// the table its bare SeqScan input reads — the column or one finite,
// positive multiple of it — and the compile is not the scalar reference;
// a shard catalog's Sort gets the shard's own index. Every other Sort
// buffers its input as before.
func TestCompileSortWalksIndexImage(t *testing.T) {
	e := newEnv(t, 2, 300, 0.05)
	score := expr.Col("T1", "score")
	term := func(w float64) expr.Expr { return expr.Sum(expr.ScoreTerm{Weight: w, E: score}) }
	sortOver := func(in *Node, keys ...expr.Expr) *Node {
		n := &Node{Op: OpSort, Children: []*Node{in}, Card: in.Card, P: &params}
		for _, k := range keys {
			n.SortKeys = append(n.SortKeys, exec.SortKey{E: k, Desc: true})
		}
		return n
	}
	filtered := &Node{Op: OpFilter, Children: []*Node{e.seqScan("T1")},
		Pred: expr.Bin(expr.OpLt, expr.Col("T1", "id"), expr.IntLit(100)), Card: 100, P: &params}
	hj := &Node{Op: OpHashJoin, Children: []*Node{e.seqScan("T1"), e.seqScan("T2")},
		EqPreds: []logical.JoinPred{{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")}}, Card: 100, P: &params}
	for _, tc := range []struct {
		name   string
		n      *Node
		cfg    Config
		index  string
		weight float64
	}{
		{"bare column", sortOver(e.seqScan("T1"), score), Config{}, "idx_T1_score", 1},
		{"weight 1", sortOver(e.seqScan("T1"), term(1)), Config{}, "idx_T1_score", 1},
		{"weight 0.3", sortOver(e.seqScan("T1"), term(0.3)), Config{}, "idx_T1_score", 0.3},
		{"key index", sortOver(e.seqScan("T1"), expr.Col("T1", "key")), Config{}, "idx_T1_key", 1},
		{"unindexed column", sortOver(e.seqScan("T1"), expr.Col("T1", "id")), Config{}, "", 0},
		{"weight 0", sortOver(e.seqScan("T1"), term(0)), Config{}, "", 0},
		{"negative weight", sortOver(e.seqScan("T1"), term(-1)), Config{}, "", 0},
		{"infinite weight", sortOver(e.seqScan("T1"), term(math.Inf(1))), Config{}, "", 0},
		{"NaN weight", sortOver(e.seqScan("T1"), term(math.NaN())), Config{}, "", 0},
		{"two keys", sortOver(e.seqScan("T1"), score, expr.Col("T1", "key")), Config{}, "", 0},
		{"two terms", sortOver(e.seqScan("T1"), expr.Sum(expr.ScoreTerm{Weight: 1, E: score},
			expr.ScoreTerm{Weight: 1, E: expr.Col("T1", "key")})), Config{}, "", 0},
		{"filter input", sortOver(filtered, score), Config{}, "", 0},
		{"join input", sortOver(hj, score), Config{}, "", 0},
		{"scalar reference", sortOver(e.seqScan("T1"), score), Config{ScalarRef: true}, "", 0},
	} {
		op, err := CompileWith(e.cat, tc.n, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ix := op.(*exec.Sort).Index
		switch {
		case tc.index == "" && ix != nil:
			t.Errorf("%s: Sort walks %s, want it to buffer its input", tc.name, ix.Idx.Name)
		case tc.index != "" && ix == nil:
			t.Errorf("%s: Sort buffers its input, want it to walk %s", tc.name, tc.index)
		case ix != nil && (ix.Idx.Name != tc.index || ix.Weight != tc.weight):
			t.Errorf("%s: Sort walks %s at weight %v, want %s at %v", tc.name, ix.Idx.Name, ix.Weight, tc.index, tc.weight)
		}
	}

	for _, name := range e.names {
		if err := e.cat.SetPartition(name, catalog.PartitionSpec{Column: "key", Kind: catalog.PartitionHash}); err != nil {
			t.Fatal(err)
		}
	}
	shards, err := e.cat.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range shards {
		op, err := Compile(sc, sortOver(e.seqScan("T1"), term(0.5)))
		if err != nil {
			t.Fatal(err)
		}
		tab, _ := sc.Table("T1")
		if ix := op.(*exec.Sort).Index; ix == nil || ix.Idx != sc.IndexOn("T1", "score") || ix.Rel != tab.Rel {
			t.Errorf("shard %d: Sort is not given the shard's own score index", i)
		}
	}
}

// TestAnalyzeSortImageKeys: EXPLAIN ANALYZE marks a Sort that keyed the
// whole heap its input lent from column images with keys=image; the scalar
// reference compile's Sort, which keys a copy on its tuples, shows none.
func TestAnalyzeSortImageKeys(t *testing.T) {
	e := newEnv(t, 1, 300, 0.05)
	tab, err := e.cat.Table("T1")
	if err != nil {
		t.Fatal(err)
	}
	key := exec.SortKey{E: expr.Sum(expr.ScoreTerm{Weight: 0.4, E: expr.Col("T1", "score")}), Desc: true}
	for _, tc := range []struct {
		in   exec.Operator
		want string
	}{
		{exec.NewSeqScan(tab.Rel), "  buffered=300 emitted=7 keys=image\n"},
		{exec.TuplePath(exec.NewSeqScan(tab.Rel)), "  buffered=300 emitted=7\n"},
	} {
		n := &Node{Op: OpSort, Children: []*Node{e.seqScan("T1")}, SortKeys: []exec.SortKey{key}, Card: 300, P: &params}
		ap := &AnalyzedPlan{}
		op := ap.collect(n, exec.NewSort(tc.in, key))
		if _, err := exec.CollectK(op, 7); err != nil {
			t.Fatal(err)
		}
		if got := FormatAnalyze(n, ap, false); !strings.Contains(got, tc.want) {
			t.Errorf("EXPLAIN ANALYZE\n%s\nwant the Sort's line %q", got, tc.want)
		}
	}
}

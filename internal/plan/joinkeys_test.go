package plan

import (
	"math"
	"slices"
	"testing"

	"rankopt/internal/catalog"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/relation"
)

// TestJoinKeySemanticsAgree compiles the three equi-joins on one key — NRJN,
// HRJN and HashJoin — over keys that are NULL, NaN, -0 and +0, and Int and
// Float spellings of one number, and requires the same result rows from all
// three. NULL and NaN keys match nothing; ±0 is one key; Int(1) joins
// Float(1). (Value.Compare calls NaN equal to every number, so an NRJN that
// tested its join predicate on every pair joined a NaN key to everything.)
func TestJoinKeySemanticsAgree(t *testing.T) {
	i, f, null := relation.Int, relation.Float, relation.Null()
	table := func(name string, rows [][2]relation.Value) *relation.Relation {
		rel := relation.New(name, relation.NewSchema(
			relation.Column{Table: name, Name: "id", Kind: relation.KindInt},
			relation.Column{Table: name, Name: "key", Kind: relation.KindFloat},
			relation.Column{Table: name, Name: "score", Kind: relation.KindFloat},
		))
		for n, r := range rows {
			rel.MustAppend(relation.Tuple{i(int64(n + 1)), r[0], r[1]})
		}
		return rel
	}
	cat := catalog.New()
	cat.AddTable(table("A", [][2]relation.Value{
		{null, f(0.9)}, {f(math.NaN()), f(0.8)}, {f(math.Copysign(0, -1)), f(0.7)},
		{i(1), f(0.6)}, {f(2), f(0.5)}, {i(3), f(0.4)},
	}))
	cat.AddTable(table("B", [][2]relation.Value{
		{f(0), f(0.95)}, {f(1), f(0.85)}, {i(2), f(0.75)}, {f(math.NaN()), f(0.65)},
		{null, f(0.55)}, {i(0), f(0.45)}, {f(1), f(0.35)},
	}))

	scan := func(name string) *Node { return &Node{Op: OpSeqScan, Table: name} }
	ranked := func(name string) *Node {
		return &Node{Op: OpSort, Children: []*Node{scan(name)},
			SortKeys: []exec.SortKey{{E: expr.Col(name, "score"), Desc: true}}}
	}
	join := func(op OpType, l, r *Node) *Node {
		return &Node{Op: op, Children: []*Node{l, r},
			EqPreds: []logical.JoinPred{{L: expr.Col("A", "key"), R: expr.Col("B", "key")}},
			LScore:  expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col("A", "score")}),
			RScore:  expr.Sum(expr.ScoreTerm{Weight: 1, E: expr.Col("B", "score")}),
		}
	}
	// pairs runs a plan and returns its result as sorted (A.id, B.id) pairs.
	pairs := func(n *Node) [][2]int64 {
		op, err := Compile(cat, n)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := exec.Collect(op)
		if err != nil {
			t.Fatalf("%v: %v", n.Op, err)
		}
		out := make([][2]int64, len(rows))
		for x, row := range rows {
			out[x] = [2]int64{row[0].AsInt(), row[3].AsInt()}
		}
		slices.SortFunc(out, func(a, b [2]int64) int {
			if a[0] != b[0] {
				return int(a[0] - b[0])
			}
			return int(a[1] - b[1])
		})
		return out
	}
	want := [][2]int64{{3, 1}, {3, 6}, {4, 2}, {4, 7}, {5, 3}}
	for _, n := range []*Node{
		join(OpNRJN, ranked("A"), scan("B")),
		join(OpHRJN, ranked("A"), ranked("B")),
		join(OpHashJoin, scan("A"), scan("B")),
	} {
		if got := pairs(n); !slices.Equal(got, want) {
			t.Errorf("%v joins %v, want %v", n.Op, got, want)
		}
	}
}

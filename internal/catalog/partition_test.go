package catalog

import (
	"math"
	"testing"

	"rankopt/internal/relation"
)

func TestSetPartitionValidation(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 20))
	if err := c.SetPartition("missing", PartitionSpec{Column: "id"}); err == nil {
		t.Fatal("unknown table must be rejected")
	}
	if err := c.SetPartition("A", PartitionSpec{Column: "nope"}); err == nil {
		t.Fatal("unknown column must be rejected")
	}
	if err := c.SetPartition("A", PartitionSpec{Column: "id", Kind: PartitionRange}); err == nil {
		t.Fatal("range partition without Lo < Hi must be rejected")
	}
	if err := c.SetPartition("A", PartitionSpec{Column: "id", Kind: PartitionHash}); err != nil {
		t.Fatal(err)
	}
	if spec, ok := c.PartitionOf("A"); !ok || spec.Column != "id" {
		t.Fatalf("PartitionOf = %+v, %v", spec, ok)
	}
}

func TestCompatible(t *testing.T) {
	h := PartitionSpec{Column: "id", Kind: PartitionHash}
	r1 := PartitionSpec{Column: "id", Kind: PartitionRange, Lo: 0, Hi: 100}
	r2 := PartitionSpec{Column: "id", Kind: PartitionRange, Lo: 0, Hi: 50}
	if !h.Compatible(h) || !r1.Compatible(r1) {
		t.Fatal("specs must be self-compatible")
	}
	if h.Compatible(r1) {
		t.Fatal("hash and range must be incompatible")
	}
	if r1.Compatible(r2) {
		t.Fatal("range specs with different intervals must be incompatible")
	}
}

// TestShardHashPartition: sharding covers every tuple exactly once, the
// parent is untouched, and per-shard stats and indexes describe the shard.
func TestShardHashPartition(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 100))
	if _, err := c.CreateIndex("A", "score", false); err != nil {
		t.Fatal(err)
	}
	if err := c.SetPartition("A", PartitionSpec{Column: "id", Kind: PartitionHash}); err != nil {
		t.Fatal(err)
	}
	shards, err := c.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	seen := map[int64]bool{}
	for i, sc := range shards {
		tab, err := sc.Table("A")
		if err != nil {
			t.Fatal(err)
		}
		total += tab.Rel.Cardinality()
		for _, tup := range tab.Rel.Tuples() {
			id := tup[0].AsInt()
			if seen[id] {
				t.Fatalf("id %d appears on two shards", id)
			}
			seen[id] = true
		}
		if tab.Stats.Card != tab.Rel.Cardinality() {
			t.Fatalf("shard %d stats card %d != rel card %d", i, tab.Stats.Card, tab.Rel.Cardinality())
		}
		if idx := sc.IndexOn("A", "score"); idx == nil {
			t.Fatalf("shard %d lost the score index", i)
		} else if n := len(idx.Image().Rids); n != tab.Rel.Cardinality() {
			t.Fatalf("shard %d index covers %d of %d tuples", i, n, tab.Rel.Cardinality())
		}
		if spec, ok := sc.PartitionOf("A"); !ok || spec.Kind != PartitionHash {
			t.Fatalf("shard %d lost the partition spec", i)
		}
	}
	if total != 100 {
		t.Fatalf("shards hold %d tuples, want 100", total)
	}
	parent, _ := c.Table("A")
	if parent.Rel.Cardinality() != 100 {
		t.Fatal("parent relation was mutated by sharding")
	}
}

// TestShardHashCoPartitions: equal key values land on equal shards across
// two independently sharded tables — the property equi-joins rely on.
func TestShardHashCoPartitions(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 64))
	c.AddTable(makeTable("B", 64))
	for _, tb := range []string{"A", "B"} {
		if err := c.SetPartition(tb, PartitionSpec{Column: "id", Kind: PartitionHash}); err != nil {
			t.Fatal(err)
		}
	}
	shards, err := c.Shard(3)
	if err != nil {
		t.Fatal(err)
	}
	home := map[int64]int{}
	for i, sc := range shards {
		tab, _ := sc.Table("A")
		for _, tup := range tab.Rel.Tuples() {
			home[tup[0].AsInt()] = i
		}
	}
	for i, sc := range shards {
		tab, _ := sc.Table("B")
		for _, tup := range tab.Rel.Tuples() {
			if home[tup[0].AsInt()] != i {
				t.Fatalf("id %d on shard %d in B but %d in A", tup[0].AsInt(), i, home[tup[0].AsInt()])
			}
		}
	}
}

// TestShardRangePartition: range buckets are contiguous and clamped, NULL
// keys land on shard 0.
func TestShardRangePartition(t *testing.T) {
	sch := relation.NewSchema(
		relation.Column{Table: "R", Name: "key", Kind: relation.KindFloat},
	)
	rel := relation.New("R", sch)
	for _, v := range []float64{-5, 0, 10, 49.9, 50, 99, 150} {
		rel.MustAppend(relation.Tuple{relation.Float(v)})
	}
	rel.MustAppend(relation.Tuple{relation.Null()})
	c := New()
	c.AddTable(rel)
	if err := c.SetPartition("R", PartitionSpec{Column: "key", Kind: PartitionRange, Lo: 0, Hi: 100}); err != nil {
		t.Fatal(err)
	}
	shards, err := c.Shard(2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{-5, 0, 10, 49.9, math.NaN()}, {50, 99, 150}} // NaN marks the NULL
	for i, sc := range shards {
		tab, _ := sc.Table("R")
		if tab.Rel.Cardinality() != len(want[i]) {
			t.Fatalf("shard %d holds %d tuples, want %d: %v", i, tab.Rel.Cardinality(), len(want[i]), tab.Rel.Tuples())
		}
	}
}

func TestShardErrors(t *testing.T) {
	c := New()
	c.AddTable(makeTable("A", 10))
	if _, err := c.Shard(0); err == nil {
		t.Fatal("shard count 0 must be rejected")
	}
	if _, err := c.Shard(2); err == nil {
		t.Fatal("table without a partition spec must be rejected")
	}
}

func TestHashValueNormalizesNumerics(t *testing.T) {
	if hashValue(relation.Int(3)) != hashValue(relation.Float(3)) {
		t.Fatal("Int(3) and Float(3) must hash alike")
	}
	if hashValue(relation.Int(3)) == hashValue(relation.Int(4)) {
		t.Fatal("distinct keys should hash apart")
	}
}

// TestPartitionByErrors covers the relation-layer contract directly.
func TestPartitionByErrors(t *testing.T) {
	rel := makeTable("A", 5)
	if _, err := rel.PartitionBy(0, nil); err == nil {
		t.Fatal("n=0 must be rejected")
	}
	if _, err := rel.PartitionBy(2, func(relation.Tuple) int { return 7 }); err == nil {
		t.Fatal("out-of-range assignment must be rejected")
	}
}

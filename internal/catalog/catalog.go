// Package catalog maintains the engine's metadata: named tables, secondary
// indexes, and statistics. Statistics include per-column min/max, distinct
// counts, and the average decrement slab of score columns — the x and y
// parameters of the paper's Section 4 depth-estimation model — plus
// equi-join selectivity estimation used by both the cost model and the
// depth model.
package catalog

import (
	"fmt"
	"sort"
	"sync/atomic"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// ColStats summarizes one column.
type ColStats struct {
	// Min and Max are the observed numeric extremes (0 for non-numeric).
	Min, Max float64
	// Distinct is the number of distinct values.
	Distinct int
	// NullFrac is the fraction of NULL values.
	NullFrac float64
	// Slab is the average decrement slab: the mean difference between the
	// scores of two consecutively ranked tuples, (Max-Min)/(Card-1) under
	// the model's uniform assumption. Zero for non-numeric columns.
	Slab float64
}

// TableStats summarizes a table.
type TableStats struct {
	Card  int
	Pages int
	Cols  map[string]ColStats
}

// Index is a secondary index over a single column: the column's sorted image
// (relation.SortedImage), which serves ascending and descending scans, range
// scans and point lookups alike.
type Index struct {
	Name      string
	Table     string
	Column    string
	Clustered bool

	rel *relation.Relation
	pos int
}

// Image returns the index's sorted image over the heap as it is now.
func (idx *Index) Image() *relation.SortedImage { return idx.rel.SortedImage(idx.pos) }

// Table is a catalog entry: the heap relation plus its indexes and stats.
type Table struct {
	Rel     *relation.Relation
	Indexes []*Index
	Stats   TableStats
}

// Catalog is the collection of tables known to the engine.
type Catalog struct {
	tables map[string]*Table
	// parts maps table name → declared partitioning spec (see partition.go).
	// A table without an entry cannot participate in sharded execution.
	parts map[string]PartitionSpec
	// epoch counts metadata mutations (table set, indexes, statistics).
	// Consumers that cache anything derived from catalog statistics — the
	// engine's plan cache in particular — key their entries on the epoch so
	// a RefreshStats or AddTable invalidates them without coordination.
	epoch atomic.Uint64
}

// New creates an empty catalog.
func New() *Catalog { return &Catalog{tables: map[string]*Table{}} }

// StatsEpoch returns the current metadata epoch. It increases on every
// mutation that can change planning decisions: AddTable, CreateIndex,
// DropIndex, RebuildIndex, and RefreshStats.
func (c *Catalog) StatsEpoch() uint64 { return c.epoch.Load() }

// bumpEpoch marks a metadata mutation.
func (c *Catalog) bumpEpoch() { c.epoch.Add(1) }

// AddTable registers a relation under its name, computing statistics.
// It replaces any previous entry of the same name.
func (c *Catalog) AddTable(rel *relation.Relation) *Table {
	t := &Table{Rel: rel}
	t.Stats = ComputeStats(rel)
	c.tables[rel.Name] = t
	c.bumpEpoch()
	return t
}

// Table returns the entry for name, or an error if absent.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q not found", name)
	}
	return t, nil
}

// Names returns the sorted table names.
func (c *Catalog) Names() []string {
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// CreateIndex builds the sorted image of table.column and registers it as an
// index; the build happens here, not at the first query. clustered marks the
// index as clustered for costing purposes (at most one per table is
// meaningful, but this is not enforced — it is a costing hint).
func (c *Catalog) CreateIndex(table, column string, clustered bool) (*Index, error) {
	t, err := c.Table(table)
	if err != nil {
		return nil, err
	}
	pos, err := t.Rel.Schema().Resolve(table, column)
	if err != nil {
		// Allow unqualified resolution for single-table schemas.
		pos, err = t.Rel.Schema().Resolve("", column)
		if err != nil {
			return nil, err
		}
	}
	idx := &Index{
		Name:      fmt.Sprintf("idx_%s_%s", table, column),
		Table:     table,
		Column:    column,
		Clustered: clustered,
		rel:       t.Rel,
		pos:       pos,
	}
	idx.Image()
	t.Indexes = append(t.Indexes, idx)
	c.bumpEpoch()
	return idx, nil
}

// DropIndex removes the index over table.column, reporting whether one
// existed, and releases the column's sorted image.
func (c *Catalog) DropIndex(table, column string) bool {
	t, ok := c.tables[table]
	if !ok {
		return false
	}
	for i, idx := range t.Indexes {
		if idx.Column == column {
			t.Indexes = append(t.Indexes[:i], t.Indexes[i+1:]...)
			idx.rel.DropSortedImage(idx.pos)
			c.bumpEpoch()
			return true
		}
	}
	return false
}

// RebuildIndex drops and recreates the index over table.column, building its
// sorted image again from the current heap contents.
func (c *Catalog) RebuildIndex(table, column string) (*Index, error) {
	var clustered bool
	if old := c.IndexOn(table, column); old != nil {
		clustered = old.Clustered
		c.DropIndex(table, column)
	}
	return c.CreateIndex(table, column, clustered)
}

// RefreshStats recomputes a table's statistics from its current contents.
func (c *Catalog) RefreshStats(table string) error {
	t, err := c.Table(table)
	if err != nil {
		return err
	}
	t.Stats = ComputeStats(t.Rel)
	c.bumpEpoch()
	return nil
}

// IndexOn returns the index over table.column, or nil.
func (c *Catalog) IndexOn(table, column string) *Index {
	t, ok := c.tables[table]
	if !ok {
		return nil
	}
	for _, idx := range t.Indexes {
		if idx.Column == column {
			return idx
		}
	}
	return nil
}

// ColStats returns the stats for table.column (zero value if unknown).
func (c *Catalog) ColStats(table, column string) ColStats {
	t, ok := c.tables[table]
	if !ok {
		return ColStats{}
	}
	return t.Stats.Cols[column]
}

// Cardinality returns the table's tuple count (0 if unknown).
func (c *Catalog) Cardinality(table string) int {
	t, ok := c.tables[table]
	if !ok {
		return 0
	}
	return t.Stats.Card
}

// JoinSelectivity estimates the selectivity of an equi-join between two
// columns using the classic System R formula 1/max(V(l), V(r)), where V is
// the distinct count. Unknown columns fall back to a conservative 0.1.
func (c *Catalog) JoinSelectivity(l, r expr.ColRef) float64 {
	ls := c.ColStats(l.Table, l.Name)
	rs := c.ColStats(r.Table, r.Name)
	v := ls.Distinct
	if rs.Distinct > v {
		v = rs.Distinct
	}
	if v <= 0 {
		return 0.1
	}
	return 1.0 / float64(v)
}

// FilterSelectivity estimates the selectivity of a single-table predicate.
// Equality against a constant uses 1/V; range predicates use the uniform
// fraction of the [Min,Max] interval; everything else falls back to 1/3
// (System R's default for unanalyzable predicates).
func (c *Catalog) FilterSelectivity(e expr.Expr) float64 {
	b, ok := e.(expr.Binary)
	if !ok {
		return 1.0 / 3
	}
	col, cok := b.L.(expr.ColRef)
	lit, lok := b.R.(expr.Const)
	if !cok || !lok {
		return 1.0 / 3
	}
	st := c.ColStats(col.Table, col.Name)
	switch b.Op {
	case expr.OpEq:
		if st.Distinct > 0 {
			return 1.0 / float64(st.Distinct)
		}
	case expr.OpLt, expr.OpLe:
		if st.Max > st.Min && lit.V.Numeric() {
			f := (lit.V.AsFloat() - st.Min) / (st.Max - st.Min)
			return clamp01(f)
		}
	case expr.OpGt, expr.OpGe:
		if st.Max > st.Min && lit.V.Numeric() {
			f := (st.Max - lit.V.AsFloat()) / (st.Max - st.Min)
			return clamp01(f)
		}
	}
	return 1.0 / 3
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// ComputeStats scans a relation and builds its statistics.
func ComputeStats(rel *relation.Relation) TableStats {
	st := TableStats{
		Card:  rel.Cardinality(),
		Pages: rel.Pages(),
		Cols:  map[string]ColStats{},
	}
	sch := rel.Schema()
	for i := 0; i < sch.Len(); i++ {
		col := sch.Column(i)
		cs := ColStats{}
		distinct := map[any]struct{}{}
		nulls := 0
		first := true
		for _, tup := range rel.Tuples() {
			v := tup[i]
			if v.IsNull() {
				nulls++
				continue
			}
			distinct[v.HashKey()] = struct{}{}
			if v.Numeric() {
				f := v.AsFloat()
				if first {
					cs.Min, cs.Max = f, f
					first = false
				} else {
					if f < cs.Min {
						cs.Min = f
					}
					if f > cs.Max {
						cs.Max = f
					}
				}
			}
		}
		cs.Distinct = len(distinct)
		if st.Card > 0 {
			cs.NullFrac = float64(nulls) / float64(st.Card)
		}
		if n := st.Card - nulls; n > 1 && cs.Max > cs.Min {
			cs.Slab = (cs.Max - cs.Min) / float64(n-1)
		}
		st.Cols[col.Name] = cs
	}
	return st
}

package relation

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the number of tuples per simulated disk page. The cost
// model and the buffer-pool accounting both use page granularity, mirroring
// the paper's page-based I/O cost estimates.
const DefaultPageSize = 100

// Relation is an in-memory table: a schema plus a slice of tuples. It plays
// the role of a heap file; access paths (indexes) are layered on top by the
// catalog. PageSize controls simulated page granularity.
type Relation struct {
	Name     string
	schema   *Schema
	tuples   []Tuple
	PageSize int

	// images are the heap's column images (see ColumnImage); imageMu
	// serializes their builds.
	images  atomic.Pointer[imageSet]
	imageMu sync.Mutex
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, schema: schema, PageSize: DefaultPageSize}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Append adds a tuple. The tuple must match the schema arity.
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation: tuple arity %d does not match schema %s", len(t), r.schema)
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// MustAppend is Append that panics on arity mismatch; used by generators and
// tests where the schema is statically known.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Cardinality returns the number of tuples.
func (r *Relation) Cardinality() int { return len(r.tuples) }

// Pages returns the number of simulated disk pages occupied.
func (r *Relation) Pages() int {
	ps := r.PageSize
	if ps <= 0 {
		ps = DefaultPageSize
	}
	if len(r.tuples) == 0 {
		return 0
	}
	return (len(r.tuples) + ps - 1) / ps
}

// Tuple returns the i-th tuple (heap order).
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Tuples returns the underlying tuple slice. Callers must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// SortedBy returns a new slice of the relation's tuples sorted by the given
// less function. The relation itself is unchanged.
func (r *Relation) SortedBy(less func(a, b Tuple) bool) []Tuple {
	out := make([]Tuple, len(r.tuples))
	copy(out, r.tuples)
	sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// Rename returns a shallow view of the relation under a new name, with every
// schema column requalified to the alias. Tuples are shared.
func (r *Relation) Rename(alias string) *Relation {
	cols := r.schema.Columns()
	for i := range cols {
		cols[i].Table = alias
	}
	return &Relation{Name: alias, schema: NewSchema(cols...), tuples: r.tuples, PageSize: r.PageSize}
}

package relation

import (
	"fmt"
	"math"
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

	// images are the heap's column and sorted images (see ColumnImage and
	// SortedImage); imageMu serializes their builds.
	images  atomic.Pointer[imageSet]
	imageMu sync.Mutex
}

// New creates an empty relation with the given name and schema.
func New(name string, schema *Schema) *Relation {
	return &Relation{Name: name, schema: schema, PageSize: DefaultPageSize}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// MaxRows is the most rows a heap holds, so that every row id fits in the
// int32 row ids of its sorted images and of the executor's row sources.
const MaxRows = math.MaxInt32

// Append adds a tuple. The tuple must match the schema arity, and the heap
// must have room for it (MaxRows).
func (r *Relation) Append(t Tuple) error {
	if len(t) != r.schema.Len() {
		return fmt.Errorf("relation: tuple arity %d does not match schema %s", len(t), r.schema)
	}
	if len(r.tuples) >= MaxRows {
		return fmt.Errorf("relation %s: heap is full at %d rows", r.Name, MaxRows)
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// MustAppend is Append that panics on error; used by generators and
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

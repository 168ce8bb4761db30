package relation

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a schema. Table holds the qualifier
// (table name or alias); it may be empty for computed columns.
type Column struct {
	Table string
	Name  string
	Kind  Kind
}

// QualifiedName returns "table.name", or just "name" when unqualified.
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns describing tuples produced by a
// relation or operator. Schemas are immutable after construction.
type Schema struct {
	cols []Column
	// byName caches qualified-name lookups; built lazily on first resolve.
	byName map[string]int
}

// NewSchema builds a schema from the given columns.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{cols: append([]Column(nil), cols...)}
	s.buildIndex()
	return s
}

func (s *Schema) buildIndex() {
	s.byName = make(map[string]int, len(s.cols))
	for i, c := range s.cols {
		s.byName[c.QualifiedName()] = i
	}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.cols) }

// Column returns the i-th column.
func (s *Schema) Column(i int) Column { return s.cols[i] }

// Columns returns a copy of the column list.
func (s *Schema) Columns() []Column { return append([]Column(nil), s.cols...) }

// Resolve finds the position of a column reference. A qualified reference
// ("A.c1") must match exactly. An unqualified reference ("c1") matches if it
// is unambiguous across the schema. Returns -1 if not found or ambiguous is
// non-nil error.
func (s *Schema) Resolve(table, name string) (int, error) {
	if table != "" {
		if i, ok := s.byName[table+"."+name]; ok {
			return i, nil
		}
		return -1, fmt.Errorf("relation: column %s.%s not found in schema %s", table, name, s)
	}
	found := -1
	for i, c := range s.cols {
		if c.Name == name {
			if found >= 0 {
				return -1, fmt.Errorf("relation: column %q is ambiguous in schema %s", name, s)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("relation: column %q not found in schema %s", name, s)
	}
	return found, nil
}

// Concat returns a new schema holding this schema's columns followed by o's.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.cols)+len(o.cols))
	cols = append(cols, s.cols...)
	cols = append(cols, o.cols...)
	return NewSchema(cols...)
}

// Project returns a new schema containing only the columns at idxs, in order.
func (s *Schema) Project(idxs []int) *Schema {
	cols := make([]Column, len(idxs))
	for i, j := range idxs {
		cols[i] = s.cols[j]
	}
	return NewSchema(cols...)
}

// String renders the schema as "(A.c1 INTEGER, A.c2 DOUBLE)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is a row of values positionally matching some schema.
type Tuple []Value

// Concat returns a new tuple holding t's values followed by o's.
func (t Tuple) Concat(o Tuple) Tuple {
	out := make(Tuple, 0, len(t)+len(o))
	out = append(out, t...)
	out = append(out, o...)
	return out
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple { return append(Tuple(nil), t...) }

// String renders the tuple as "[v1, v2, ...]".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

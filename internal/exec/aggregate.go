package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Supported aggregates.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggAvg
)

var aggNames = map[AggFunc]string{
	AggCount: "COUNT", AggSum: "SUM", AggMin: "MIN", AggMax: "MAX", AggAvg: "AVG",
}

// String returns the SQL spelling.
func (f AggFunc) String() string { return aggNames[f] }

// ParseAggFunc maps a (case-insensitive) name to an aggregate function.
func ParseAggFunc(name string) (AggFunc, bool) {
	for f, n := range aggNames {
		if strings.EqualFold(n, name) {
			return f, true
		}
	}
	return 0, false
}

// Kind returns the output kind of the aggregate given its input kind.
func (f AggFunc) Kind(arg relation.Kind) relation.Kind {
	switch f {
	case AggCount:
		return relation.KindInt
	case AggAvg:
		return relation.KindFloat
	case AggSum:
		return relation.KindFloat
	default:
		return arg
	}
}

// AggSpec describes one aggregate output column. Arg is nil for COUNT(*).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
	As   string
}

// String renders "SUM(expr)".
func (a AggSpec) String() string {
	if a.Arg == nil {
		return a.Func.String() + "(*)"
	}
	return a.Func.String() + "(" + a.Arg.String() + ")"
}

// accumulator folds values for one aggregate within one group.
type accumulator struct {
	fn    AggFunc
	count int64
	sum   float64
	minV  relation.Value
	maxV  relation.Value
	any   bool
}

func (a *accumulator) add(v relation.Value) {
	if a.fn == AggCount {
		// COUNT(*) counts rows (v is a dummy); COUNT(x) skips NULLs.
		if !v.IsNull() {
			a.count++
		}
		return
	}
	if v.IsNull() {
		return
	}
	a.count++
	switch a.fn {
	case AggSum, AggAvg:
		a.sum += v.AsFloat()
	case AggMin:
		if !a.any || v.Compare(a.minV) < 0 {
			a.minV = v
		}
	case AggMax:
		if !a.any || v.Compare(a.maxV) > 0 {
			a.maxV = v
		}
	}
	a.any = true
}

func (a *accumulator) result() relation.Value {
	switch a.fn {
	case AggCount:
		return relation.Int(a.count)
	case AggSum:
		if a.count == 0 {
			return relation.Null()
		}
		return relation.Float(a.sum)
	case AggAvg:
		if a.count == 0 {
			return relation.Null()
		}
		return relation.Float(a.sum / float64(a.count))
	case AggMin:
		if !a.any {
			return relation.Null()
		}
		return a.minV
	case AggMax:
		if !a.any {
			return relation.Null()
		}
		return a.maxV
	}
	return relation.Null()
}

// aggSchema builds the output schema: group columns then aggregate columns.
func aggSchema(in *relation.Schema, groupBy []expr.ColRef, aggs []AggSpec) (*relation.Schema, error) {
	cols := make([]relation.Column, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		i, err := in.Resolve(g.Table, g.Name)
		if err != nil {
			return nil, err
		}
		cols = append(cols, in.Column(i))
	}
	for _, a := range aggs {
		kind := relation.KindFloat
		if c, ok := a.Arg.(expr.ColRef); ok {
			if i, err := in.Resolve(c.Table, c.Name); err == nil {
				kind = in.Column(i).Kind
			}
		}
		name := a.As
		if name == "" {
			name = a.String()
		}
		cols = append(cols, relation.Column{Name: name, Kind: a.Func.Kind(kind)})
	}
	return relation.NewSchema(cols...), nil
}

// bindAgg compiles group-key and aggregate-argument evaluators.
func bindAgg(in *relation.Schema, groupBy []expr.ColRef, aggs []AggSpec) (keys []expr.Eval, args []expr.Eval, err error) {
	keys = make([]expr.Eval, len(groupBy))
	for i, g := range groupBy {
		if keys[i], err = g.Bind(in); err != nil {
			return nil, nil, err
		}
	}
	args = make([]expr.Eval, len(aggs))
	for i, a := range aggs {
		if a.Arg == nil {
			// COUNT(*): count every row via a non-NULL dummy.
			args[i] = func(relation.Tuple) (relation.Value, error) {
				return relation.Int(1), nil
			}
			continue
		}
		if args[i], err = a.Arg.Bind(in); err != nil {
			return nil, nil, err
		}
	}
	return keys, args, nil
}

func newAccumulators(aggs []AggSpec) []accumulator {
	out := make([]accumulator, len(aggs))
	for i, a := range aggs {
		out[i] = accumulator{fn: a.Func}
	}
	return out
}

// HashAggregate groups its input with a hash table. It is blocking and
// produces groups in a deterministic (sorted key string) order.
type HashAggregate struct {
	In      Operator
	GroupBy []expr.ColRef
	Aggs    []AggSpec

	schema *relation.Schema
	out    []relation.Tuple
	pos    int
	// Groups records the group count after Open, for instrumentation.
	Groups int
}

// NewHashAggregate constructs the operator. Empty GroupBy aggregates the
// whole input into one row.
func NewHashAggregate(in Operator, groupBy []expr.ColRef, aggs []AggSpec) *HashAggregate {
	return &HashAggregate{In: in, GroupBy: groupBy, Aggs: aggs}
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *relation.Schema {
	if h.schema == nil {
		sch, err := aggSchema(h.In.Schema(), h.GroupBy, h.Aggs)
		if err != nil {
			// Surface the resolution error at Open; return an empty schema
			// here to keep Schema() infallible.
			return relation.NewSchema()
		}
		h.schema = sch
	}
	return h.schema
}

// Open implements Operator: the blocking drain polls the context on
// the sampling cadence.
func (h *HashAggregate) Open(ctx context.Context) error {
	if err := h.In.Open(ctx); err != nil {
		return err
	}
	if err := h.load(ctx); err != nil {
		closeQuietly(h.In)
		return err
	}
	return nil
}

// load resolves the schema and drains the opened input into groups.
func (h *HashAggregate) load(ctx context.Context) error {
	sch, err := aggSchema(h.In.Schema(), h.GroupBy, h.Aggs)
	if err != nil {
		return err
	}
	h.schema = sch
	keys, args, err := bindAgg(h.In.Schema(), h.GroupBy, h.Aggs)
	if err != nil {
		return err
	}
	type group struct {
		keyVals relation.Tuple
		accs    []accumulator
	}
	groups := map[string]*group{}
	var c canceller
	c.reset(ctx)
	for {
		if err := c.poll(); err != nil {
			return err
		}
		t, ok, err := h.In.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		keyVals := make(relation.Tuple, len(keys))
		var kb strings.Builder
		for i, kev := range keys {
			v, err := kev(t)
			if err != nil {
				return err
			}
			keyVals[i] = v
			kb.WriteString(v.String())
			kb.WriteByte('|')
		}
		g := groups[kb.String()]
		if g == nil {
			g = &group{keyVals: keyVals, accs: newAccumulators(h.Aggs)}
			groups[kb.String()] = g
		}
		for i, aev := range args {
			v, err := aev(t)
			if err != nil {
				return err
			}
			g.accs[i].add(v)
		}
	}
	// Deterministic output order.
	names := make([]string, 0, len(groups))
	for k := range groups {
		names = append(names, k)
	}
	sort.Strings(names)
	h.out = h.out[:0]
	for _, k := range names {
		g := groups[k]
		row := make(relation.Tuple, 0, len(g.keyVals)+len(g.accs))
		row = append(row, g.keyVals...)
		for i := range g.accs {
			row = append(row, g.accs[i].result())
		}
		h.out = append(h.out, row)
	}
	// Aggregation without grouping always yields one row.
	if len(h.GroupBy) == 0 && len(h.out) == 0 {
		accs := newAccumulators(h.Aggs)
		row := make(relation.Tuple, 0, len(accs))
		for i := range accs {
			row = append(row, accs[i].result())
		}
		h.out = append(h.out, row)
	}
	h.Groups = len(h.out)
	h.pos = 0
	return nil
}

// Next implements Operator.
func (h *HashAggregate) Next() (relation.Tuple, bool, error) {
	if h.pos >= len(h.out) {
		return nil, false, nil
	}
	t := h.out[h.pos]
	h.pos++
	return t, true, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.out = nil
	return h.In.Close()
}

// SortedAggregate groups an input that already arrives ordered by the group
// columns. It streams: each group is emitted as soon as the next one starts,
// preserving the input's group order — the operator that makes group-by
// columns interesting orders.
type SortedAggregate struct {
	In      Operator
	GroupBy []expr.ColRef
	Aggs    []AggSpec

	schema  *relation.Schema
	keys    []expr.Eval
	args    []expr.Eval
	curKey  relation.Tuple
	accs    []accumulator
	started bool
	done    bool
}

// NewSortedAggregate constructs the operator; GroupBy must be non-empty.
func NewSortedAggregate(in Operator, groupBy []expr.ColRef, aggs []AggSpec) *SortedAggregate {
	return &SortedAggregate{In: in, GroupBy: groupBy, Aggs: aggs}
}

// Schema implements Operator.
func (s *SortedAggregate) Schema() *relation.Schema {
	if s.schema == nil {
		sch, err := aggSchema(s.In.Schema(), s.GroupBy, s.Aggs)
		if err != nil {
			return relation.NewSchema()
		}
		s.schema = sch
	}
	return s.schema
}

// Open implements Operator, forwarding the context to the input.
func (s *SortedAggregate) Open(ctx context.Context) error {
	if len(s.GroupBy) == 0 {
		return fmt.Errorf("exec: sorted aggregate needs group columns")
	}
	if err := s.In.Open(ctx); err != nil {
		return err
	}
	sch, err := aggSchema(s.In.Schema(), s.GroupBy, s.Aggs)
	if err != nil {
		closeQuietly(s.In)
		return err
	}
	s.schema = sch
	if s.keys, s.args, err = bindAgg(s.In.Schema(), s.GroupBy, s.Aggs); err != nil {
		closeQuietly(s.In)
		return err
	}
	s.curKey = nil
	s.started = false
	s.done = false
	return nil
}

// emit builds the output row for the finished group.
func (s *SortedAggregate) emit() relation.Tuple {
	row := make(relation.Tuple, 0, len(s.curKey)+len(s.accs))
	row = append(row, s.curKey...)
	for i := range s.accs {
		row = append(row, s.accs[i].result())
	}
	return row
}

func sameKey(a, b relation.Tuple) bool {
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Next implements Operator.
func (s *SortedAggregate) Next() (relation.Tuple, bool, error) {
	if s.done {
		return nil, false, nil
	}
	for {
		t, ok, err := s.In.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			if s.started {
				return s.emit(), true, nil
			}
			return nil, false, nil
		}
		key := make(relation.Tuple, len(s.keys))
		for i, kev := range s.keys {
			v, err := kev(t)
			if err != nil {
				return nil, false, err
			}
			key[i] = v
		}
		var finished relation.Tuple
		if s.started && !sameKey(key, s.curKey) {
			finished = s.emit()
			s.started = false
		}
		if !s.started {
			s.curKey = key
			s.accs = newAccumulators(s.Aggs)
			s.started = true
		}
		for i, aev := range s.args {
			v, err := aev(t)
			if err != nil {
				return nil, false, err
			}
			s.accs[i].add(v)
		}
		if finished != nil {
			return finished, true, nil
		}
	}
}

// Close implements Operator.
func (s *SortedAggregate) Close() error { return s.In.Close() }

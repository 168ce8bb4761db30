package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadCSV parses a relation from CSV — a header row of "name:KIND" cells
// followed by one row per tuple, empty cells reading as NULL — qualifying
// every column with the given table name.
func ReadCSV(rd io.Reader, name string) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	cols := make([]Column, len(header))
	for i, h := range header {
		parts := strings.SplitN(h, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("relation: header cell %q lacks a :KIND suffix", h)
		}
		kind, err := parseKind(parts[1])
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Table: name, Name: strings.TrimSpace(parts[0]), Kind: kind}
	}
	rel := New(name, NewSchema(cols...))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation: CSV line %d: %w", line, err)
		}
		tup := make(Tuple, len(cols))
		for i, cell := range rec {
			v, err := decodeValue(cell, cols[i].Kind)
			if err != nil {
				return nil, fmt.Errorf("relation: CSV line %d column %s: %w", line, cols[i].Name, err)
			}
			tup[i] = v
		}
		if err := rel.Append(tup); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func parseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "INTEGER", "INT":
		return KindInt, nil
	case "DOUBLE", "FLOAT":
		return KindFloat, nil
	case "VARCHAR", "STRING", "TEXT":
		return KindString, nil
	case "BOOLEAN", "BOOL":
		return KindBool, nil
	default:
		return KindNull, fmt.Errorf("relation: unknown column kind %q", s)
	}
}

func decodeValue(cell string, kind Kind) (Value, error) {
	if cell == "" {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		i, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Null(), err
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Null(), err
		}
		return Float(f), nil
	case KindString:
		return String_(cell), nil
	case KindBool:
		b, err := strconv.ParseBool(cell)
		if err != nil {
			return Null(), err
		}
		return Bool(b), nil
	}
	return Null(), fmt.Errorf("cannot decode into kind %v", kind)
}

package relation

import (
	"strings"
	"testing"
)

func TestReadCSVHandAuthored(t *testing.T) {
	src := `name:STRING,city:INT,rating:FLOAT,open:BOOL
le bistro,3,4.8,true
pizza pit,3,3.9,false
new place,,,
`
	rel, err := ReadCSV(strings.NewReader(src), "Restaurants")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Cardinality() != 3 {
		t.Fatalf("rows = %d", rel.Cardinality())
	}
	if _, err := rel.Schema().Resolve("Restaurants", "rating"); err != nil {
		t.Fatal(err)
	}
	if rel.Tuple(0)[0].AsString() != "le bistro" || rel.Tuple(1)[2].AsFloat() != 3.9 ||
		!rel.Tuple(0)[3].AsBool() || rel.Tuple(1)[3].AsBool() {
		t.Fatal("values mismatch")
	}
	if !rel.Tuple(2)[1].IsNull() || !rel.Tuple(2)[2].IsNull() || !rel.Tuple(2)[3].IsNull() {
		t.Fatal("empty cells must decode as NULL")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"no kind":     "name,city\nx,1\n",
		"bad kind":    "name:BLOB\nx\n",
		"bad int":     "n:INT\nxyz\n",
		"bad float":   "f:FLOAT\nab\n",
		"bad bool":    "b:BOOL\nmaybe\n",
		"ragged rows": "a:INT,b:INT\n1\n",
		"empty input": "",
	}
	for name, src := range cases {
		if _, err := ReadCSV(strings.NewReader(src), "T"); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

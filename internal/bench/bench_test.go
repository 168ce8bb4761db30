package bench

import (
	"strconv"
	"strings"
	"testing"
)

func runExp(t *testing.T, name string) *Table {
	t.Helper()
	e, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", name)
	}
	return tab
}

func col(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, c := range tab.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("table %q lacks column %q: %v", tab.Title, name, tab.Columns)
	return -1
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}

// Fig1 must show the paper's crossover: sort plan wins at the lowest
// selectivity, rank-join at the highest.
func TestFig1Shape(t *testing.T) {
	tab := runExp(t, "fig1")
	w := col(t, tab, "winner")
	first := tab.Rows[0][w]
	last := tab.Rows[len(tab.Rows)-1][w]
	if first != "sort-plan" {
		t.Errorf("lowest selectivity should favor the sort plan, got %s", first)
	}
	if last != "rank-join" {
		t.Errorf("highest selectivity should favor the rank-join, got %s", last)
	}
}

// Fig6: rank-join cost strictly grows with k; sort plan is flat; the winner
// flips at most once, at k*.
func TestFig6Shape(t *testing.T) {
	tab := runExp(t, "fig6")
	rc := col(t, tab, "rank-join")
	sc := col(t, tab, "sort-plan")
	ch := col(t, tab, "cheaper")
	prevRank := -1.0
	flips := 0
	prevWinner := ""
	for _, r := range tab.Rows {
		rv := parseF(t, r[rc])
		if rv < prevRank {
			t.Error("rank-join cost must be non-decreasing in k")
		}
		prevRank = rv
		if sv := parseF(t, r[sc]); sv != parseF(t, tab.Rows[0][sc]) {
			t.Error("sort plan cost must be k-independent")
		}
		if prevWinner != "" && r[ch] != prevWinner {
			flips++
		}
		prevWinner = r[ch]
	}
	if flips > 1 {
		t.Errorf("winner flipped %d times; monotone costs allow at most one crossover", flips)
	}
	if tab.Rows[0][ch] != "rank-join" {
		t.Error("small k must favor the rank-join plan")
	}
	if !strings.Contains(tab.Note, "k*") {
		t.Error("note should report k*")
	}
}

// Fig2/Fig3: richer property spaces retain at least as many plans, strictly
// more in total.
func TestFig2And3Growth(t *testing.T) {
	for _, c := range []struct{ name, base, rich string }{
		{"fig2", "no ORDER BY", "with ORDER BY"},
		{"fig3", "traditional", "rank-aware"},
	} {
		tab := runExp(t, c.name)
		b, r := col(t, tab, c.base), col(t, tab, c.rich)
		last := tab.Rows[len(tab.Rows)-1]
		if last[0] != "TOTAL" {
			t.Fatalf("%s: last row should be TOTAL", c.name)
		}
		if parseF(t, last[r]) <= parseF(t, last[b]) {
			t.Errorf("%s: %s should retain more plans (%s vs %s)", c.name, c.rich, last[r], last[b])
		}
		for _, row := range tab.Rows {
			if parseF(t, row[r])+1e-9 < parseF(t, row[b]) {
				t.Errorf("%s: entry %s lost plans under the richer space", c.name, row[0])
			}
		}
	}
}

func TestTable1Rows(t *testing.T) {
	tab := runExp(t, "table1")
	if len(tab.Rows) != 10 {
		t.Errorf("Table 1 should have 10 rows (paper), got %d", len(tab.Rows))
	}
	// B.c1 is both a join column and a rank term.
	found := false
	for _, r := range tab.Rows {
		if r[0] == "B.c1" && strings.Contains(r[1], "Join") && strings.Contains(r[1], "Rank-join") {
			found = true
		}
	}
	if !found {
		t.Error("B.c1 must be interesting for both Join and Rank-join")
	}
}

func TestFig4Propagation(t *testing.T) {
	tab := runExp(t, "fig4")
	k := col(t, tab, "required k")
	dl := col(t, tab, "depth into left")
	if parseF(t, tab.Rows[1][k]) != parseF(t, tab.Rows[0][dl]) {
		t.Error("child's required k must equal the parent's left depth")
	}
	if parseF(t, tab.Rows[1][k]) <= parseF(t, tab.Rows[0][k]) {
		t.Error("under sparse joins k must grow down the pipeline")
	}
}

// The headline Section 5 claim: measured depth sits between the Any-k
// estimate (lower) and the worst-case Top-k estimate (upper), and the
// average-case estimation error stays within a modest band (paper: <30% on
// its video data; we allow 60% headroom for the smallest k).
func TestFig13Accuracy(t *testing.T) {
	tab := runExp(t, "fig13")
	// Column blocks: [k, d12, anyk, avg, worst, err, d56, anyk, avg, worst, err].
	for _, base := range []int{1, 6} {
		for _, r := range tab.Rows {
			actual := parseF(t, r[base])
			anyk := parseF(t, r[base+1])
			avg := parseF(t, r[base+2])
			worst := parseF(t, r[base+3])
			if !(anyk <= avg && avg <= worst) {
				t.Errorf("k=%s: estimate series not ordered: %v %v %v", r[0], anyk, avg, worst)
			}
			if actual < anyk*0.5 {
				t.Errorf("k=%s: actual %.0f far below any-k lower estimate %.0f", r[0], actual, anyk)
			}
			if actual > worst*1.2 {
				t.Errorf("k=%s: actual %.0f exceeds worst-case bound %.0f", r[0], actual, worst)
			}
			if e := parseF(t, r[base+4]); e > 60 {
				t.Errorf("k=%s: average-case estimation error %.0f%% too large", r[0], e)
			}
		}
	}
}

func TestFig14DepthsGrowAsSelectivityDrops(t *testing.T) {
	tab := runExp(t, "fig14")
	a := col(t, tab, "d1/d2 actual")
	first := parseF(t, tab.Rows[0][a])              // lowest selectivity
	last := parseF(t, tab.Rows[len(tab.Rows)-1][a]) // highest selectivity
	if first <= last {
		t.Errorf("lower selectivity must force deeper digs: %.0f vs %.0f", first, last)
	}
}

func TestFig15BufferBounds(t *testing.T) {
	tab := runExp(t, "fig15")
	actual := col(t, tab, "actual buffer")
	aub := col(t, tab, "actual UB (d1*d2*s)")
	wub := col(t, tab, "estimated UB (worst)")
	for _, r := range tab.Rows {
		if parseF(t, r[actual]) > parseF(t, r[aub])*1.05 {
			t.Errorf("k=%s: actual buffer exceeds its upper bound", r[0])
		}
		if parseF(t, r[actual]) > parseF(t, r[wub]) {
			t.Errorf("k=%s: actual buffer exceeds the estimated worst-case bound", r[0])
		}
	}
}

func TestAblations(t *testing.T) {
	jt := runExp(t, "joins")
	if len(jt.Rows) != 5 {
		t.Error("join-choice ablation rows")
	}
	pr := runExp(t, "pruning")
	if len(pr.Rows) != 4 {
		t.Error("pruning ablation rows")
	}
}

func TestRegistry(t *testing.T) {
	if len(All()) < 12 {
		t.Error("registry shrank")
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown experiment must error")
	}
	if e, err := ByName("fig1"); err != nil || e.Name != "fig1" {
		t.Error("lookup failed")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", 0.0001)
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "1", "2.50", "0.00010", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("format missing %q in:\n%s", want, s)
		}
	}
}

package plot

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/stats"
)

func lineSeries(name string, pts ...float64) stats.Series {
	s := stats.Series{Name: name}
	for i := 0; i+1 < len(pts); i += 2 {
		s.AddPoint(pts[i], pts[i+1])
	}
	return s
}

func TestLineChartBasic(t *testing.T) {
	s := lineSeries("P=2", 0, 0, 1, 1, 2, 4, 3, 9)
	out := LineChart(Config{Title: "fct", XLabel: "load", YLabel: "seconds", Width: 40, Height: 10}, s)
	for _, want := range []string{"fct", "load", "seconds", "legend: * P=2", "+----"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "*") {
		t.Errorf("chart has no markers:\n%s", out)
	}
}

func TestLineChartMultiSeriesMarkers(t *testing.T) {
	a := lineSeries("a", 0, 0, 1, 1)
	b := lineSeries("b", 0, 1, 1, 0)
	out := LineChart(Config{Width: 30, Height: 8}, a, b)
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("expected two marker kinds:\n%s", out)
	}
	if !strings.Contains(out, "legend: * a   o b") {
		t.Errorf("legend wrong:\n%s", out)
	}
}

func TestLineChartEmpty(t *testing.T) {
	if out := LineChart(Config{}); out != "(no data)\n" {
		t.Errorf("empty chart = %q", out)
	}
}

func TestLineChartDegenerateRanges(t *testing.T) {
	// Single point: both ranges degenerate; must not panic or divide by 0.
	s := lineSeries("p", 5, 5)
	out := LineChart(Config{Width: 20, Height: 6}, s)
	if !strings.Contains(out, "*") {
		t.Errorf("single-point chart missing marker:\n%s", out)
	}
}

func TestCDFChart(t *testing.T) {
	pts := []stats.CDFPoint{{X: 0.1, P: 0.5}, {X: 0.2, P: 0.9}, {X: 5, P: 1.0}}
	out := CDFChart(Config{Width: 40, Height: 10}, "fct", pts)
	if !strings.Contains(out, "P(X<=x)") {
		t.Errorf("CDF chart missing default y label:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	bars := []Bar{
		{Label: "streaming", Value: 2.5},
		{Label: "1440 files", Value: 120},
		{Label: "zero", Value: 0},
	}
	out := BarChart(Config{Title: "fig4", Width: 30}, "s", bars)
	if !strings.Contains(out, "fig4") || !strings.Contains(out, "streaming") {
		t.Errorf("bar chart malformed:\n%s", out)
	}
	// The small non-zero bar still gets at least one cell.
	lines := strings.Split(out, "\n")
	var small string
	for _, l := range lines {
		if strings.HasPrefix(l, "streaming") {
			small = l
		}
	}
	if !strings.Contains(small, "█") {
		t.Errorf("small bar not rendered: %q", small)
	}
	if out := BarChart(Config{}, "s", nil); !strings.Contains(out, "(no data)") {
		t.Errorf("empty bars = %q", out)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a := lineSeries("a", 1, 10, 2, 20)
	b := lineSeries("b", 1, 5)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, "x", a, b); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("rows = %d: %v", len(recs), recs)
	}
	if recs[0][0] != "x" || recs[0][1] != "a" || recs[0][2] != "b" {
		t.Errorf("header = %v", recs[0])
	}
	if recs[1][0] != "1" || recs[1][1] != "10" || recs[1][2] != "5" {
		t.Errorf("row1 = %v", recs[1])
	}
	if recs[2][2] != "" {
		t.Errorf("short series should leave empty cell: %v", recs[2])
	}
	if err := WriteSeriesCSV(&buf, "x"); err == nil {
		t.Error("no-series CSV should fail")
	}
}

func TestWriteCDFAndBarsCSV(t *testing.T) {
	var buf bytes.Buffer
	pts := []stats.CDFPoint{{X: 1, P: 0.5}, {X: 2, P: 1}}
	if err := WriteCDFCSV(&buf, "fct_seconds", pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fct_seconds,cumulative_probability") {
		t.Errorf("CDF csv: %q", buf.String())
	}
	buf.Reset()
	if err := WriteBarsCSV(&buf, "seconds", []Bar{{Label: "s", Value: 1.5}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "s,1.5") {
		t.Errorf("bars csv: %q", buf.String())
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Header: []string{"Component", "Specification"}}
	tab.AddRow("CPU", "AMD EPYC 7532 (16 vCPUs)")
	tab.AddRow("Memory", "32 GB RAM")
	out := tab.String()
	if !strings.Contains(out, "Component") || !strings.Contains(out, "AMD EPYC") {
		t.Errorf("table: \n%s", out)
	}
	// The header rule must be present.
	if !strings.Contains(out, "---") {
		t.Errorf("missing rule:\n%s", out)
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil || len(recs) != 3 {
		t.Fatalf("csv recs = %v err = %v", recs, err)
	}

	empty := &Table{}
	if got := empty.String(); got != "(empty table)\n" {
		t.Errorf("empty table = %q", got)
	}
}

func TestTableRaggedRows(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.AddRow("1", "2", "3") // wider than header
	tab.AddRow("only")
	out := tab.String()
	if !strings.Contains(out, "3") || !strings.Contains(out, "only") {
		t.Errorf("ragged table:\n%s", out)
	}
}

func TestScaleClamps(t *testing.T) {
	if got := scale(-10, 0, 1, 10); got != 0 {
		t.Errorf("scale below = %d", got)
	}
	if got := scale(10, 0, 1, 10); got != 9 {
		t.Errorf("scale above = %d", got)
	}
	if got := scale(0.5, 0, 0, 10); got != 0 {
		t.Errorf("degenerate = %d", got)
	}
}

// Package plot renders experiment results as ASCII charts and CSV files.
//
// Go has no standard plotting stack, and the reproduction must be
// stdlib-only, so every figure in the paper is regenerated in two forms:
// a terminal-friendly ASCII chart (for humans) and a CSV series dump
// (for any external plotting tool). The charts deliberately favour
// legibility of *shape* — regime boundaries, knees, tails — which is what
// the reproduction is judged on.
package plot

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Config controls chart geometry.
type Config struct {
	Width  int    // plot-area columns (default 72)
	Height int    // plot-area rows (default 20)
	Title  string // optional title line
	XLabel string
	YLabel string
}

func (c Config) withDefaults() Config {
	if c.Width <= 0 {
		c.Width = 72
	}
	if c.Width < 16 {
		c.Width = 16
	}
	if c.Height <= 0 {
		c.Height = 20
	}
	if c.Height < 5 {
		c.Height = 5
	}
	return c
}

// markers cycles per-series point glyphs.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// LineChart renders one or more series as a scatter/line ASCII chart with
// axes, tick labels, and a legend. Series may have different lengths.
func LineChart(cfg Config, series ...stats.Series) string {
	cfg = cfg.withDefaults()
	var sb strings.Builder

	xs, ys := collect(series)
	if len(xs) == 0 {
		return "(no data)\n"
	}
	xmin, xmax := minMax(xs)
	ymin, ymax := minMax(ys)
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := newGrid(cfg.Width, cfg.Height)
	for si, s := range series {
		m := markers[si%len(markers)]
		pts := make([][2]int, 0, s.Len())
		for i := 0; i < s.Len(); i++ {
			col := scale(s.X[i], xmin, xmax, cfg.Width)
			row := scale(s.Y[i], ymin, ymax, cfg.Height)
			pts = append(pts, [2]int{col, row})
		}
		// Connect consecutive points with interpolated cells so trends
		// read as lines, then stamp markers on the data points.
		for i := 1; i < len(pts); i++ {
			grid.line(pts[i-1], pts[i], '.')
		}
		for _, p := range pts {
			grid.set(p[0], p[1], m)
		}
	}

	if cfg.Title != "" {
		fmt.Fprintf(&sb, "%s\n", cfg.Title)
	}
	renderFrame(&sb, cfg, grid, xmin, xmax, ymin, ymax)
	legend(&sb, series)
	return sb.String()
}

// CDFChart renders an empirical CDF (one per series of pre-computed CDF
// points) with probability on the y-axis.
func CDFChart(cfg Config, name string, pts []stats.CDFPoint) string {
	s := stats.Series{Name: name}
	for _, p := range pts {
		s.AddPoint(p.X, p.P)
	}
	if cfg.YLabel == "" {
		cfg.YLabel = "P(X<=x)"
	}
	return LineChart(cfg, s)
}

// Bar is one bar of a BarChart.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders a horizontal bar chart. Values must be >= 0; bars are
// scaled to the longest.
func BarChart(cfg Config, unit string, bars []Bar) string {
	cfg = cfg.withDefaults()
	var sb strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&sb, "%s\n", cfg.Title)
	}
	if len(bars) == 0 {
		sb.WriteString("(no data)\n")
		return sb.String()
	}
	maxv := 0.0
	labelW := 0
	for _, b := range bars {
		if b.Value > maxv {
			maxv = b.Value
		}
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	if maxv <= 0 {
		maxv = 1
	}
	for _, b := range bars {
		n := int(math.Round(b.Value / maxv * float64(cfg.Width)))
		if b.Value > 0 && n == 0 {
			n = 1
		}
		fmt.Fprintf(&sb, "%-*s | %-*s %.4g %s\n",
			labelW, b.Label, cfg.Width, strings.Repeat("█", n), b.Value, unit)
	}
	return sb.String()
}

// grid is a row-major character canvas; row 0 is the bottom.
type grid struct {
	w, h  int
	cells [][]byte
}

func newGrid(w, h int) *grid {
	g := &grid{w: w, h: h, cells: make([][]byte, h)}
	for i := range g.cells {
		g.cells[i] = []byte(strings.Repeat(" ", w))
	}
	return g
}

func (g *grid) set(col, row int, ch byte) {
	if col < 0 || col >= g.w || row < 0 || row >= g.h {
		return
	}
	g.cells[row][col] = ch
}

// line draws a Bresenham segment, never overwriting non-space cells with
// the filler character.
func (g *grid) line(a, b [2]int, ch byte) {
	x0, y0 := a[0], a[1]
	x1, y1 := b[0], b[1]
	dx := abs(x1 - x0)
	dy := -abs(y1 - y0)
	sx := 1
	if x0 > x1 {
		sx = -1
	}
	sy := 1
	if y0 > y1 {
		sy = -1
	}
	err := dx + dy
	for {
		if x0 >= 0 && x0 < g.w && y0 >= 0 && y0 < g.h && g.cells[y0][x0] == ' ' {
			g.cells[y0][x0] = ch
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scale maps v in [lo, hi] to a cell index in [0, n-1].
func scale(v, lo, hi float64, n int) int {
	if hi == lo {
		return 0
	}
	f := (v - lo) / (hi - lo)
	i := int(math.Round(f * float64(n-1)))
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func collect(series []stats.Series) (xs, ys []float64) {
	for _, s := range series {
		xs = append(xs, s.X...)
		ys = append(ys, s.Y...)
	}
	return xs, ys
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	return lo, hi
}

func renderFrame(sb *strings.Builder, cfg Config, g *grid, xmin, xmax, ymin, ymax float64) {
	ylabels := make([]string, cfg.Height)
	labelW := 0
	for r := 0; r < cfg.Height; r++ {
		v := ymin + (ymax-ymin)*float64(r)/float64(cfg.Height-1)
		ylabels[r] = fmt.Sprintf("%.3g", v)
		if len(ylabels[r]) > labelW {
			labelW = len(ylabels[r])
		}
	}
	if cfg.YLabel != "" {
		fmt.Fprintf(sb, "%s\n", cfg.YLabel)
	}
	// Rows top to bottom.
	for r := cfg.Height - 1; r >= 0; r-- {
		label := ""
		// Tick labels every few rows, always on the ends.
		if r == cfg.Height-1 || r == 0 || r%4 == 0 {
			label = ylabels[r]
		}
		fmt.Fprintf(sb, "%*s |%s\n", labelW, label, string(g.cells[r]))
	}
	fmt.Fprintf(sb, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", cfg.Width))
	// X tick labels: min, mid, max.
	xmid := (xmin + xmax) / 2
	left := fmt.Sprintf("%.3g", xmin)
	mid := fmt.Sprintf("%.3g", xmid)
	right := fmt.Sprintf("%.3g", xmax)
	pad := cfg.Width - len(left) - len(mid) - len(right)
	if pad < 2 {
		pad = 2
	}
	l1 := pad / 2
	l2 := pad - l1
	fmt.Fprintf(sb, "%s  %s%s%s%s%s\n", strings.Repeat(" ", labelW),
		left, strings.Repeat(" ", l1), mid, strings.Repeat(" ", l2), right)
	if cfg.XLabel != "" {
		fmt.Fprintf(sb, "%s  [%s]\n", strings.Repeat(" ", labelW), cfg.XLabel)
	}
}

func legend(sb *strings.Builder, series []stats.Series) {
	if len(series) == 0 {
		return
	}
	named := false
	for _, s := range series {
		if s.Name != "" {
			named = true
			break
		}
	}
	if !named {
		return
	}
	parts := make([]string, 0, len(series))
	for i, s := range series {
		name := s.Name
		if name == "" {
			name = fmt.Sprintf("series%d", i+1)
		}
		parts = append(parts, fmt.Sprintf("%c %s", markers[i%len(markers)], name))
	}
	sort.Strings(parts[:0]) // keep declaration order; no-op sort for clarity
	fmt.Fprintf(sb, "legend: %s\n", strings.Join(parts, "   "))
}

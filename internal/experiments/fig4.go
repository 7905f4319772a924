package experiments

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/pipeline"
	"repro/internal/plot"
)

// Fig4Variant is one bar of Fig. 4: a transfer method at a frame rate.
type Fig4Variant struct {
	Label    string
	Interval time.Duration
	Files    int // 0 = streaming
	Timeline pipeline.Timeline
}

// Fig4Result carries the figure plus the raw variants for the headline
// computation.
type Fig4Result struct {
	Artifact Artifact
	Variants []Fig4Variant
}

// fig4Intervals are the two generation rates of the paper's Fig. 4.
var fig4Intervals = []time.Duration{33 * time.Millisecond, 330 * time.Millisecond}

// fig4FileCounts are the aggregation variants of the paper's Fig. 4.
var fig4FileCounts = []int{1, 10, 144, 1440}

// Fig4 evaluates streaming vs file-based staging for the APS scan at
// both frame rates and all aggregation levels — the paper's Fig. 4.
func Fig4() (*Fig4Result, error) {
	res := &Fig4Result{}
	var bars []plot.Bar
	for _, interval := range fig4Intervals {
		scan := pipeline.APSScan(interval)
		rate := fmt.Sprintf("%.3fs/frame", interval.Seconds())

		stream, err := pipeline.Streaming(scan, pipeline.DefaultStreaming())
		if err != nil {
			return nil, fmt.Errorf("experiments: fig4 streaming %v: %w", interval, err)
		}
		label := fmt.Sprintf("%s streaming", rate)
		res.Variants = append(res.Variants, Fig4Variant{
			Label: label, Interval: interval, Files: 0,
			Timeline: stream,
		})
		bars = append(bars, plot.Bar{Label: label, Value: stream.Completion.Seconds()})

		for _, n := range fig4FileCounts {
			tl, err := pipeline.FileBased(scan, pipeline.DefaultFileBased(n))
			if err != nil {
				return nil, fmt.Errorf("experiments: fig4 %d files %v: %w", n, interval, err)
			}
			label := fmt.Sprintf("%s %d file(s)", rate, n)
			res.Variants = append(res.Variants, Fig4Variant{
				Label: label, Interval: interval, Files: n,
				Timeline: tl,
			})
			bars = append(bars, plot.Bar{Label: label, Value: tl.Completion.Seconds()})
		}
	}

	title := "Streaming vs file-based transfer, APS Voyager GPFS -> ALCF Eagle Lustre (paper Fig. 4)"
	text := plot.BarChart(plot.Config{Title: title, Width: 48}, "s end-to-end", bars)
	var csv bytes.Buffer
	if err := plot.WriteBarsCSV(&csv, "completion_s", bars); err != nil {
		return nil, fmt.Errorf("experiments: fig4 csv: %w", err)
	}
	res.Artifact = Artifact{ID: "fig4", Title: title, Text: text, CSV: csv.String()}
	return res, nil
}

// HeadlineNumbers extracts the abstract's two claims from regenerated
// data: the maximum streaming-vs-file completion reduction (paper: "up
// to 97%"), and the worst-case congestion inflation over the theoretical
// transfer time (paper: "over an order of magnitude").
type HeadlineNumbers struct {
	// MaxReductionPercent is the best observed streaming reduction.
	MaxReductionPercent float64
	// ReductionAt is the Fig. 4 variant it occurred against.
	ReductionAt string
	// WorstInflation is max observed SSS across the congestion sweep.
	WorstInflation float64
}

// Headline computes HeadlineNumbers from the Fig. 4 variants and the
// Fig. 2a sweep.
func Headline(fig4 *Fig4Result, fig2a *Fig2Result) (HeadlineNumbers, Artifact, error) {
	if fig4 == nil || fig2a == nil {
		return HeadlineNumbers{}, Artifact{}, fmt.Errorf("experiments: headline needs fig4 and fig2a results")
	}
	var h HeadlineNumbers
	// Pair each streaming variant with the staged variants at its rate.
	streams := map[time.Duration]pipeline.Timeline{}
	for _, v := range fig4.Variants {
		if v.Files == 0 {
			streams[v.Interval] = v.Timeline
		}
	}
	for _, v := range fig4.Variants {
		if v.Files == 0 {
			continue
		}
		stream, ok := streams[v.Interval]
		if !ok {
			continue
		}
		red := pipeline.ReductionPercent(stream, v.Timeline)
		if red > h.MaxReductionPercent {
			h.MaxReductionPercent = red
			h.ReductionAt = v.Label
		}
	}
	for _, row := range fig2a.Sweep.Rows {
		if row.SSS > h.WorstInflation {
			h.WorstInflation = row.SSS
		}
	}

	text := fmt.Sprintf(
		"streaming completion reduction: up to %.1f%% (vs %s)\n"+
			"paper claim: up to 97%% under high data rates\n\n"+
			"worst-case congestion inflation (SSS): %.1fx theoretical\n"+
			"paper claim: over an order of magnitude (>10x)\n",
		h.MaxReductionPercent, h.ReductionAt, h.WorstInflation)
	a := Artifact{
		ID:    "headline",
		Title: "Abstract headline claims, regenerated",
		Text:  text,
	}
	return h, a, nil
}

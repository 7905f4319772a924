package core

import (
	"testing"
	"time"

	"repro/internal/units"
)

func TestWorstForBatchUsesCurveValue(t *testing.T) {
	c := fig2aLikeCurve(t)
	// A 2 GB batch at 64%: the curve's 1.2 s dominates the 0.64 s floor —
	// exactly the paper's §5 coherent-scattering number.
	w, err := c.WorstForBatch(0.64, 2*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w, 1200*time.Millisecond, time.Millisecond) {
		t.Fatalf("WorstForBatch(0.64, 2GB) = %v, want 1.2s", w)
	}
	// A 3 GB batch at 96%: the curve's 6 s dominates the 0.96 s floor —
	// the paper's liquid-scattering number.
	w, err = c.WorstForBatch(0.96, 3*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w, 6*time.Second, time.Millisecond) {
		t.Fatalf("WorstForBatch(0.96, 3GB) = %v, want 6s", w)
	}
}

func TestWorstForBatchFloorsAtTheoretical(t *testing.T) {
	c := fig2aLikeCurve(t)
	// A huge batch at low load: the wire time floor must win over the
	// small measured worst case.
	w, err := c.WorstForBatch(0.16, 100*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	floor := TheoreticalTransfer(100*units.GB, c.Bandwidth)
	if w != floor {
		t.Fatalf("WorstForBatch = %v, want floor %v", w, floor)
	}
}

func TestWorstForBatchEmptyCurve(t *testing.T) {
	var nilCurve *SSSCurve
	if _, err := nilCurve.WorstForBatch(0.5, units.GB); err != ErrEmptyCurve {
		t.Fatalf("err = %v", err)
	}
}

func TestWorstForBatchVsWorstForSize(t *testing.T) {
	c := fig2aLikeCurve(t)
	// For batches larger than the measurement size, linear scaling of
	// the worst case by size must dominate the batch estimate — it is
	// the conservative bound.
	batch, err := c.WorstForBatch(0.8, 4*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.WorstAt(0.8)
	if err != nil {
		t.Fatal(err)
	}
	scaled := units.Seconds(w.Seconds() * (4 * units.GB).Bytes() / c.Size.Bytes())
	if scaled < batch {
		t.Fatalf("linear scaling %v should bound batch estimate %v", scaled, batch)
	}
}

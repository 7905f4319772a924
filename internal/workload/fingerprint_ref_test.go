package workload

// Differential tests pinning the optimized key/seed renderings to the
// fmt-based implementations they replaced. Both functions feed
// persistent state — cellFingerprint keys every record on disk,
// netPointSeedOffset derives every cell's loss-randomization seed — so
// a single diverging byte would silently invalidate (fingerprint) or
// change (seed) every existing cache. The references below are verbatim
// copies of the pre-optimization code; the tests hold the live
// functions to them byte-for-byte over the default configs, every axis
// the repo sweeps, and a large randomized corpus.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// referenceCellFingerprint is the fmt-based rendering cellFingerprint
// replaced, kept verbatim except that the terms of deleted tcpsim
// fields (maxt, rq, xper, xduty, xjit) render their old production
// values as fixed text.
func referenceCellFingerprint(e Experiment) string {
	var b strings.Builder
	b.Grow(256)
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(&b, "cell;dur=%d;conc=%d;p=%d;size=%s;strat=%d",
		int64(e.Duration), e.Concurrency, e.ParallelFlows,
		f(float64(e.TransferSize)), int(e.Strategy))
	n := e.Net
	fmt.Fprintf(&b, ";cap=%s;rtt=%d;mss=%s;buf=%s;icw=%d;rto=%d;seed=%d;maxt=0;rq=false;cc=%d",
		f(float64(n.Capacity)), int64(n.BaseRTT), f(float64(n.MSS)), f(float64(n.Buffer)),
		n.InitCwndSegments, int64(n.RTO), n.Seed, int(n.CC))
	fmt.Fprintf(&b, ";xfrac=%s;xper=0;xduty=0;xjit=false", f(n.CrossFraction))
	return b.String()
}

// referenceNetPointSeedOffset is the fmt/hash.fnv implementation
// netPointSeedOffset replaced, kept verbatim.
func referenceNetPointSeedOffset(a Axes, c GridCell) int64 {
	if c.RTT == a.Net.BaseRTT && c.Buffer == a.Net.Buffer &&
		c.CC == a.Net.CC && c.CrossFraction == a.Net.CrossFraction {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "rtt=%d;buf=%s;cc=%d;cross=%s",
		int64(c.RTT), strconv.FormatFloat(float64(c.Buffer), 'g', -1, 64),
		int(c.CC), strconv.FormatFloat(c.CrossFraction, 'g', -1, 64))
	return int64(h.Sum64()%(1<<42)+1) * netSeedStride
}

// randomExperiment draws an experiment whose every fingerprinted field
// is randomized — including negative, zero, fractional and large
// values, which exercise each strconv formatter's edge behavior.
func randomExperiment(rng *rand.Rand) Experiment {
	e := Experiment{
		Duration:      time.Duration(rng.Int63n(int64(time.Hour)) - int64(time.Minute)),
		Concurrency:   rng.Intn(2000) - 100,
		ParallelFlows: rng.Intn(128) - 8,
		TransferSize:  units.ByteSize(rng.NormFloat64() * 1e11),
		Strategy:      Strategy(rng.Intn(4)),
		Net:           tcpsim.DefaultConfig(),
	}
	n := &e.Net
	n.Capacity = units.BitRate(rng.NormFloat64() * 1e11)
	n.BaseRTT = time.Duration(rng.Int63n(int64(time.Second)) - int64(time.Millisecond))
	n.MSS = units.ByteSize(rng.Float64() * 9001)
	n.Buffer = units.ByteSize(rng.NormFloat64() * 1e9)
	n.InitCwndSegments = rng.Intn(200) - 10
	n.RTO = time.Duration(rng.Int63n(int64(time.Second)))
	n.Seed = rng.Int63() - rng.Int63()
	n.CC = tcpsim.CongestionControl(rng.Intn(4))
	n.CrossFraction = rng.Float64() * 0.95
	return e
}

// TestCellFingerprintMatchesReference: the strconv-based
// cellFingerprint emits byte-for-byte what the fmt-based reference
// emitted — for the real cells the repo computes (default sweep, fast
// and sub grid axes) and for 5000 randomized experiments.
func TestCellFingerprintMatchesReference(t *testing.T) {
	var exps []Experiment
	for _, a := range []Axes{
		DefaultSweep().normalized(),
		fastAxes().normalized(),
		subAxes().normalized(),
	} {
		for _, c := range a.Cells() {
			exps = append(exps, a.Experiment(c))
		}
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		exps = append(exps, randomExperiment(rng))
	}
	for i, e := range exps {
		got, want := cellFingerprint(e), referenceCellFingerprint(e)
		if got != want {
			t.Fatalf("experiment %d: fingerprint diverged from the fmt reference\n got %q\nwant %q\nexperiment: %+v", i, got, want, e)
		}
	}
}

// TestNetPointSeedOffsetMatchesReference: the inline-FNV
// netPointSeedOffset returns exactly what the hash/fnv+fmt reference
// returned — base-point zero anchor included — for the repo's grid
// axes and for 5000 randomized network points.
func TestNetPointSeedOffsetMatchesReference(t *testing.T) {
	axes := []Axes{fastAxes().normalized(), subAxes().normalized(), DefaultSweep().normalized()}
	for ai, a := range axes {
		for _, c := range a.Cells() {
			got, want := a.netPointSeedOffset(c), referenceNetPointSeedOffset(a, c)
			if got != want {
				t.Fatalf("axes %d cell %d: seed offset %d, reference %d", ai, c.Index, got, want)
			}
		}
		// The base network point must keep offset 0 (the anchor that
		// holds the Table 2 grid bit-identical to the reference sweep).
		base := GridCell{RTT: a.Net.BaseRTT, Buffer: a.Net.Buffer, CC: a.Net.CC, CrossFraction: a.Net.CrossFraction}
		if off := a.netPointSeedOffset(base); off != 0 {
			t.Fatalf("axes %d: base point offset %d, want 0", ai, off)
		}
	}

	a := fastAxes().normalized()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		c := GridCell{
			RTT:           time.Duration(rng.Int63n(int64(time.Second)) - int64(time.Millisecond)),
			Buffer:        units.ByteSize(rng.NormFloat64() * 1e9),
			CC:            tcpsim.CongestionControl(rng.Intn(4)),
			CrossFraction: rng.NormFloat64(),
		}
		got, want := a.netPointSeedOffset(c), referenceNetPointSeedOffset(a, c)
		if got != want {
			t.Fatalf("random point %d (%+v): seed offset %d, reference %d", i, c, got, want)
		}
	}
}

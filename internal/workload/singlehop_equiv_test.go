package workload

// Single-hop equivalence: the tentpole's compatibility contract. A
// 1-hop Path is the legacy flat Net written differently, and must be
// INDISTINGUISHABLE from it — same fingerprint (so the same memo entry
// and the same cell records), same per-cell seeds, bit-identical rows.
// normalized() guarantees this structurally by folding the hop into
// Net before anything downstream looks; these tests hold the fold to
// that promise over the repo's real axes sets and a large randomized
// corpus, in the same differential style as fingerprint_ref_test.go.

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// singleHopOf re-expresses a flat Axes as the equivalent 1-hop Path:
// the hop carries the Net's link parameters, and the base Net's own
// link fields are deliberately garbled so only the fold can restore
// them — any downstream read of the unfolded Net would diverge loudly.
func singleHopOf(a Axes, role tcpsim.HopRole) Axes {
	a.Path = tcpsim.Path{{
		Role:          role,
		Capacity:      a.Net.Capacity,
		RTT:           a.Net.BaseRTT,
		Buffer:        a.Net.Buffer,
		CrossFraction: a.Net.CrossFraction,
	}}
	a.Net.Capacity = -1
	a.Net.BaseRTT = -1
	a.Net.Buffer = -1
	a.Net.CrossFraction = -1
	return a
}

// assertAxesEquivalent holds a 1-hop variant to full equivalence with
// its flat source: fingerprint, cell enumeration, and every cell's
// lowered Experiment (which bakes in the derived seed) byte-for-byte.
func assertAxesEquivalent(t *testing.T, label string, flat, hop Axes) {
	t.Helper()
	if got, want := hop.Fingerprint(), flat.Fingerprint(); got != want {
		t.Fatalf("%s: fingerprint diverged\n got %q\nwant %q", label, got, want)
	}
	fc, hc := flat.Cells(), hop.Cells()
	if !reflect.DeepEqual(fc, hc) {
		t.Fatalf("%s: cell enumeration diverged", label)
	}
	nf, nh := flat.normalized(), hop.normalized()
	for i := range fc {
		ef, eh := nf.Experiment(fc[i]), nh.Experiment(hc[i])
		if ef != eh {
			t.Fatalf("%s: cell %d experiment diverged\n got %+v\nwant %+v", label, i, eh, ef)
		}
		if gf, gh := cellFingerprint(ef), cellFingerprint(eh); gf != gh {
			t.Fatalf("%s: cell %d record fingerprint diverged\n got %q\nwant %q", label, i, gh, gf)
		}
	}
}

// TestSingleHopEquivalenceRealAxes: the three axes sets the repo
// actually runs, each expressed through every hop role.
func TestSingleHopEquivalenceRealAxes(t *testing.T) {
	sets := map[string]Axes{
		"default sweep": DefaultSweep(),
		"fastAxes":      fastAxes(),
		"subAxes":       subAxes(),
	}
	for name, flat := range sets {
		for _, role := range []tcpsim.HopRole{tcpsim.HopEdge, tcpsim.HopWAN, tcpsim.HopIngress} {
			hop := singleHopOf(flat, role)
			if err := hop.Validate(); err != nil {
				t.Fatalf("%s via %v: Validate: %v", name, role, err)
			}
			assertAxesEquivalent(t, name+" via "+role.String(), flat, hop)
		}
	}
}

// TestSingleHopEquivalenceRandomized: 1500 randomized axes per seed —
// random endpoint parameters, random (valid) link values, random axis
// lists — each re-expressed as a random-role 1-hop path.
func TestSingleHopEquivalenceRandomized(t *testing.T) {
	for _, seed := range []int64{42, 7} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1500; i++ {
			e := randomExperiment(rng)
			flat := Axes{
				Duration:      e.Duration,
				Concurrencies: []int{1 + rng.Intn(8)},
				ParallelFlows: []int{1 + rng.Intn(16)},
				TransferSizes: []units.ByteSize{e.TransferSize},
				Strategy:      e.Strategy,
				Net:           e.Net,
			}
			// The hop must be a valid path hop: positive capacity and
			// RTT, non-negative buffer, cross fraction in [0, 1).
			flat.Net.Capacity = units.BitRate(1 + rng.Float64()*1e11)
			flat.Net.BaseRTT = time.Duration(1 + rng.Int63n(int64(time.Second)))
			flat.Net.Buffer = units.ByteSize(rng.Float64() * 1e9)
			flat.Net.CrossFraction = rng.Float64() * 0.95
			// Sometimes sweep the link axes too: the fold only fixes the
			// base point, the axis overrides must keep applying on top.
			if rng.Intn(2) == 0 {
				flat.RTTs = []time.Duration{flat.Net.BaseRTT, time.Duration(1 + rng.Int63n(int64(time.Second)))}
			}
			if rng.Intn(2) == 0 {
				flat.CrossFractions = []float64{flat.Net.CrossFraction, rng.Float64() * 0.95}
			}
			role := tcpsim.HopRole(rng.Intn(3))
			assertAxesEquivalent(t, "randomized", flat, singleHopOf(flat, role))
		}
	}
}

// TestSingleHopRowsBitIdentical executes both expressions of the same
// grid and requires bit-identical rows — the end-to-end half of the
// contract (the structural tests above cover keys and seeds; this
// covers the simulator actually receiving identical configs).
func TestSingleHopRowsBitIdentical(t *testing.T) {
	flat := fastAxes()
	hop := singleHopOf(flat, tcpsim.HopWAN)
	want, err := RunGrid(flat)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunGrid(hop)
	if err != nil {
		t.Fatal(err)
	}
	if gridRowsJSON(t, got.Rows) != gridRowsJSON(t, want.Rows) {
		t.Fatal("1-hop path grid rows differ from the flat Net grid")
	}
}

// TestSingleHopSharesCacheWithFlat: because fingerprints and seeds are
// identical, a 1-hop grid must warm-serve entirely from records a flat
// run of the same grid persisted — zero engine runs, identical
// cache-stats attribution, byte-identical rows.
func TestSingleHopSharesCacheWithFlat(t *testing.T) {
	dir := t.TempDir()
	flat := fastAxes()

	cold := NewGridCache()
	cold.SetDiskDir(dir)
	ref, err := cold.Get(flat, 0)
	if err != nil {
		t.Fatal(err)
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	base := ReadCacheStats()
	g, err := warm.Get(singleHopOf(flat, tcpsim.HopEdge), 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(base)
	if d.EngineRuns != 0 || d.CellsFromSegment != int64(flat.Size()) {
		t.Fatalf("1-hop warm open stats = %v, want all %d cells from the flat run's segment", d, flat.Size())
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, ref.Rows) {
		t.Fatal("1-hop warm rows differ from the flat cold run")
	}
}

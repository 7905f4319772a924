package facility

import (
	"math"
	"strings"
	"testing"

	"repro/internal/units"
)

func TestTable3Values(t *testing.T) {
	rows := LCLS2Workflows()
	if len(rows) != 2 {
		t.Fatalf("Table 3 has %d rows", len(rows))
	}
	cs := rows[0]
	if cs.Throughput != 2*units.GBps || cs.Compute != 34*units.TeraFLOPS {
		t.Errorf("coherent scattering: %v, %v", cs.Throughput, cs.Compute)
	}
	ls := rows[1]
	if ls.Throughput != 4*units.GBps || ls.Compute != 20*units.TeraFLOPS {
		t.Errorf("liquid scattering: %v, %v", ls.Throughput, ls.Compute)
	}
}

func TestWorkflowString(t *testing.T) {
	w := LCLS2CoherentScattering()
	if s := w.String(); !strings.Contains(s, "LCLS-II") || !strings.Contains(s, "34.00 TFLOPS") {
		t.Errorf("String = %q", s)
	}
}

func TestInstrumentsComplete(t *testing.T) {
	all := []Instrument{LHC(), APS(), FRIB()}
	names := map[string]bool{}
	for _, i := range all {
		if i.Name == "" || i.RawRate <= 0 || i.Link <= 0 {
			t.Errorf("incomplete preset: %+v", i)
		}
		names[i.Name] = true
	}
	for _, want := range []string{"LHC (ATLAS/CMS)", "APS", "FRIB (DELERIA)"} {
		if !names[want] {
			t.Errorf("missing preset %q", want)
		}
	}
}

func TestAPSFrameMatchesFig4(t *testing.T) {
	aps := APS()
	if aps.FrameSize != 2048*2048*2*units.Byte {
		t.Errorf("frame size = %v", aps.FrameSize)
	}
	if aps.FrameInterval.Seconds() != 0.033 {
		t.Errorf("frame interval = %v", aps.FrameInterval)
	}
}

func TestDELERIAPerProcess(t *testing.T) {
	// 240 MB/s over 100 processes = 2.4 MB/s per process — the paper's
	// "roughly 2 MB/s per compute process".
	got := DELERIAPerProcessRate().BytesPerSecond()
	if math.Abs(got-2.4e6) > 1 {
		t.Errorf("per process = %v", got)
	}
}

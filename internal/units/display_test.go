package units

import (
	"testing"
	"time"
)

// Display-branch coverage: every suffix tier of every String method.

func TestByteSizeStringAllTiers(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{0, "0 B"},
		{999, "999 B"},
		{1 * KB, "1.00 KB"},
		{1 * MB, "1.00 MB"},
		{1 * GB, "1.00 GB"},
		{1 * TB, "1.00 TB"},
		{1 * PB, "1.00 PB"},
		{-2 * TB, "-2.00 TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%g) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestBitRateStringAllTiers(t *testing.T) {
	cases := []struct {
		in   BitRate
		want string
	}{
		{0, "0 bps"},
		{500, "500 bps"},
		{2 * Kbps, "2.00 Kbps"},
		{3 * Mbps, "3.00 Mbps"},
		{25 * Gbps, "25.00 Gbps"},
		{1.2 * Tbps, "1.20 Tbps"},
		{-40 * Gbps, "-40.00 Gbps"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%g) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestByteRateStringAllTiers(t *testing.T) {
	cases := []struct {
		in   ByteRate
		want string
	}{
		{0, "0 B/s"},
		{12, "12 B/s"},
		{5 * KBps, "5.00 KB/s"},
		{240 * MBps, "240.00 MB/s"},
		{3 * GBps, "3.00 GB/s"},
		{40 * TBps, "40.00 TB/s"},
		{-1 * GBps, "-1.00 GB/s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%g) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestFLOPSStringAllTiers(t *testing.T) {
	cases := []struct {
		in   FLOPS
		want string
	}{
		{0, "0 FLOP/s"},
		{900, "900 FLOP/s"},
		{2 * MegaFLOPS, "2.00 MFLOPS"},
		{3 * GigaFLOPS, "3.00 GFLOPS"},
		{34 * TeraFLOPS, "34.00 TFLOPS"},
		{1.5 * PetaFLOPS, "1.50 PFLOPS"},
		{2 * ExaFLOPS, "2.00 EFLOPS"},
		{-1 * PetaFLOPS, "-1.00 PFLOPS"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%g) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestParseSpelledBitRates(t *testing.T) {
	cases := []struct {
		in   string
		want BitRate
	}{
		{"9600 bps", 9600},
		{"3 kbit/s", 3 * Kbps},
		{"2 Mbit/s", 2 * Mbps},
		{"40 gbit/s", 40 * Gbps},
		{"1 tbit/s", Tbps},
	}
	for _, c := range cases {
		got, err := ParseBitRate(c.in)
		if err != nil {
			t.Errorf("ParseBitRate(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseBitRate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseFLOPSBareAndErrors(t *testing.T) {
	got, err := ParseFLOPS("5e9")
	if err != nil || got != 5*GigaFLOPS {
		t.Errorf("bare FLOPS = %v, %v", got, err)
	}
	for _, bad := range []string{"", "TF", "5 yoctoflops"} {
		if _, err := ParseFLOPS(bad); err == nil {
			t.Errorf("ParseFLOPS(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"", "5 bogons"} {
		if _, err := ParseByteRate(bad); err == nil {
			t.Errorf("ParseByteRate(%q) accepted", bad)
		}
	}
}

func TestParseExponentEdge(t *testing.T) {
	// 'E' must be treated as a suffix start when not followed by digits:
	// there is no "EB" suffix, so this errors rather than mis-parsing.
	if _, err := ParseByteSize("5EB"); err == nil {
		t.Error("5EB accepted (no exabyte suffix defined)")
	}
	// But a real exponent parses.
	got, err := ParseByteSize("5e2")
	if err != nil || got != 500 {
		t.Errorf("5e2 = %v, %v", got, err)
	}
	// Exponent followed by sign.
	got, err = ParseByteSize("5e+2KB")
	if err != nil || got != 500*KB {
		t.Errorf("5e+2KB = %v, %v", got, err)
	}
	// Trailing 'e' alone is a suffix error.
	if _, err := ParseByteSize("5e"); err == nil {
		t.Error("bare trailing e accepted")
	}
}

func TestRateAccessors(t *testing.T) {
	if (2 * GBps).BytesPerSecond() != 2e9 {
		t.Error("BytesPerSecond wrong")
	}
	if (34 * TeraFLOPS).PerSecond() != 34e12 {
		t.Error("PerSecond wrong")
	}
}

// Property regression: Seconds must invert Duration.Seconds exactly (the
// truncation bug this guards against surfaced as an off-by-1ns windowed
// maximum in the monitor package).
func TestSecondsRoundTripsDuration(t *testing.T) {
	for _, d := range []time.Duration{
		16275 * time.Millisecond, // the original failure
		1, 999, 1000, 123456789,
		time.Second, time.Hour,
		-16275 * time.Millisecond,
	} {
		if got := Seconds(d.Seconds()); got != d {
			t.Errorf("Seconds(%v.Seconds()) = %v", d, got)
		}
	}
}

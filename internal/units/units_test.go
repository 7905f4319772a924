package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestByteSizeConversions(t *testing.T) {
	cases := []struct {
		in    ByteSize
		bytes float64
	}{
		{0.5 * GB, 5e8},
		{1 * KB, 1e3},
		{1 * KiB, 1024},
		{12.6 * GB, 1.26e10},
		{0, 0},
	}
	for _, c := range cases {
		if got := c.in.Bytes(); got != c.bytes {
			t.Errorf("%v.Bytes() = %v, want %v", c.in, got, c.bytes)
		}
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		in   ByteSize
		want string
	}{
		{512 * Byte, "512 B"},
		{0.5 * GB, "500.00 MB"},
		{12.08 * GB, "12.08 GB"},
		{2 * TB, "2.00 TB"},
		{3 * PB, "3.00 PB"},
		{-1 * GB, "-1.00 GB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%g) = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

func TestBitRateByteRateRoundTrip(t *testing.T) {
	br := 25 * Gbps
	if got := br.ByteRate(); got != 3.125*GBps {
		t.Fatalf("25 Gbps -> %v, want 3.125 GB/s", got)
	}
	if got := (3.125 * GBps).BitRate(); got != br {
		t.Fatalf("3.125 GB/s -> %v, want 25 Gbps", got)
	}
}

func TestSecondsSaturation(t *testing.T) {
	if got := Seconds(math.Inf(1)); got != time.Duration(math.MaxInt64) {
		t.Errorf("Seconds(+Inf) = %v", got)
	}
	if got := Seconds(math.Inf(-1)); got != time.Duration(math.MinInt64) {
		t.Errorf("Seconds(-Inf) = %v", got)
	}
	if got := Seconds(math.NaN()); got != 0 {
		t.Errorf("Seconds(NaN) = %v", got)
	}
	if got := Seconds(1.5); got != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v", got)
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want ByteSize
	}{
		{"0.5GB", 0.5 * GB},
		{"12.6 GB", 12.6 * GB},
		{"8MiB", 8 * MiB},
		{"512B", 512},
		{"2048", 2048},
		{"1e3 KB", 1 * MB},
		{"-3MB", -3 * MB},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if err != nil {
			t.Errorf("ParseByteSize(%q): %v", c.in, err)
			continue
		}
		if math.Abs(float64(got-c.want)) > 1e-6 {
			t.Errorf("ParseByteSize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseByteSizeErrors(t *testing.T) {
	for _, in := range []string{"", "GB", "12XB", "1.2.3GB", "12 bogus"} {
		if _, err := ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q) unexpectedly succeeded", in)
		}
	}
}

func TestParseBitRate(t *testing.T) {
	cases := []struct {
		in   string
		want BitRate
	}{
		{"25Gbps", 25 * Gbps},
		{"40 Gbps", 40 * Gbps},
		{"100Mbps", 100 * Mbps},
		{"1Tbps", Tbps},
		{"9600", 9600},
		{"32 gbps", 32 * Gbps},
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
	if _, err := ParseBitRate("5 parsecs"); err == nil {
		t.Error("expected error for bad suffix")
	}
}

func TestParseByteRate(t *testing.T) {
	cases := []struct {
		in   string
		want ByteRate
	}{
		{"2GB/s", 2 * GBps},
		{"240 MB/s", 240 * MBps},
		{"4gb/s", 4 * GBps},
		{"1000", 1000},
	}
	for _, c := range cases {
		got, err := ParseByteRate(c.in)
		if err != nil {
			t.Errorf("ParseByteRate(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseByteRate(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseFLOPS(t *testing.T) {
	cases := []struct {
		in   string
		want FLOPS
	}{
		{"34TF", 34 * TeraFLOPS},
		{"20 TFLOPS", 20 * TeraFLOPS},
		{"1.5PF", 1.5 * PetaFLOPS},
		{"2EF", 2 * ExaFLOPS},
	}
	for _, c := range cases {
		got, err := ParseFLOPS(c.in)
		if err != nil {
			t.Errorf("ParseFLOPS(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseFLOPS(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRateStrings(t *testing.T) {
	if got := (25 * Gbps).String(); got != "25.00 Gbps" {
		t.Errorf("got %q", got)
	}
	if got := (240 * MBps).String(); got != "240.00 MB/s" {
		t.Errorf("got %q", got)
	}
	if got := (34 * TeraFLOPS).String(); got != "34.00 TFLOPS" {
		t.Errorf("got %q", got)
	}
	if got := (2 * BitPerSecond).String(); got != "2 bps" {
		t.Errorf("got %q", got)
	}
}

// Property: BitRate -> ByteRate -> BitRate is the identity (x/8*8 is
// exact in binary floating point).
func TestQuickBitByteRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		r := BitRate(v)
		return r.ByteRate().BitRate() == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: parsing the String() form of a positive size yields a value
// within formatting precision (2 decimal places of the leading unit).
func TestQuickByteSizeStringParseApprox(t *testing.T) {
	f := func(raw uint32) bool {
		s := ByteSize(raw) * KB // spread across KB..GB range
		str := s.String()
		got, err := ParseByteSize(str)
		if err != nil {
			return false
		}
		if s == 0 {
			return got == 0
		}
		rel := math.Abs(float64(got-s)) / float64(s)
		return rel < 0.01 // 2-decimal display => <1% rounding error
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestParseWhitespaceTolerance(t *testing.T) {
	for _, in := range []string{" 0.5GB ", "0.5 GB", "0.5GB"} {
		got, err := ParseByteSize(in)
		if err != nil {
			t.Fatalf("ParseByteSize(%q): %v", in, err)
		}
		if got != 0.5*GB {
			t.Fatalf("ParseByteSize(%q) = %v", in, got)
		}
	}
}

func TestStringContainsNoDoubleSpace(t *testing.T) {
	for _, s := range []string{
		(1.5 * GB).String(),
		(25 * Gbps).String(),
		(3 * GBps).String(),
		(34 * TeraFLOPS).String(),
	} {
		if strings.Contains(s, "  ") {
			t.Errorf("%q contains double space", s)
		}
	}
}

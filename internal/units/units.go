// Package units provides strongly typed physical quantities used across
// the stream2x reproduction: data sizes, bit and byte rates, and compute
// rates (FLOPS).
//
// The paper "To Stream or Not to Stream" works exclusively in decimal
// units (0.5 GB at 25 Gbps = 0.16 s), so this package uses SI decimal
// multipliers: 1 GB = 1e9 bytes, 1 Gbps = 1e9 bits per second. Binary
// (IEC) multipliers are provided with their explicit names (GiB, ...)
// for callers that need them, but nothing in the reproduction uses them
// by default.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// ByteSize is an amount of data in bytes. It is a float64 so that
// analytic model arithmetic (fractions of a unit) stays exact enough
// without forced truncation; display rounds as appropriate.
type ByteSize float64

// Decimal (SI) data size multipliers.
const (
	Byte ByteSize = 1
	KB            = 1e3 * Byte
	MB            = 1e6 * Byte
	GB            = 1e9 * Byte
	TB            = 1e12 * Byte
	PB            = 1e15 * Byte
)

// Binary (IEC) data size multipliers.
const (
	KiB = 1024 * Byte
	MiB = 1024 * KiB
	GiB = 1024 * MiB
	TiB = 1024 * GiB
)

// Bytes returns the size as a plain float64 byte count.
func (s ByteSize) Bytes() float64 { return float64(s) }

// String formats the size with an automatically chosen decimal suffix,
// e.g. "0.50 GB", "12.08 GB", "512 B".
func (s ByteSize) String() string {
	v := float64(s)
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= float64(PB):
		return fmt.Sprintf("%s%.2f PB", neg, v/float64(PB))
	case v >= float64(TB):
		return fmt.Sprintf("%s%.2f TB", neg, v/float64(TB))
	case v >= float64(GB):
		return fmt.Sprintf("%s%.2f GB", neg, v/float64(GB))
	case v >= float64(MB):
		return fmt.Sprintf("%s%.2f MB", neg, v/float64(MB))
	case v >= float64(KB):
		return fmt.Sprintf("%s%.2f KB", neg, v/float64(KB))
	default:
		return fmt.Sprintf("%s%g B", neg, v)
	}
}

// BitRate is a data rate in bits per second, the unit network links are
// specified in (e.g. a 25 Gbps Mellanox ConnectX-5).
type BitRate float64

// Decimal bit rate multipliers.
const (
	BitPerSecond BitRate = 1
	Kbps                 = 1e3 * BitPerSecond
	Mbps                 = 1e6 * BitPerSecond
	Gbps                 = 1e9 * BitPerSecond
	Tbps                 = 1e12 * BitPerSecond
)

// ByteRate converts the bit rate to the equivalent byte rate.
func (r BitRate) ByteRate() ByteRate { return ByteRate(float64(r) / 8) }

// String formats the rate with an automatically chosen suffix.
func (r BitRate) String() string {
	v := float64(r)
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= float64(Tbps):
		return fmt.Sprintf("%s%.2f Tbps", neg, v/float64(Tbps))
	case v >= float64(Gbps):
		return fmt.Sprintf("%s%.2f Gbps", neg, v/float64(Gbps))
	case v >= float64(Mbps):
		return fmt.Sprintf("%s%.2f Mbps", neg, v/float64(Mbps))
	case v >= float64(Kbps):
		return fmt.Sprintf("%s%.2f Kbps", neg, v/float64(Kbps))
	default:
		return fmt.Sprintf("%s%g bps", neg, v)
	}
}

// ByteRate is a data rate in bytes per second, the unit the paper's
// model works in (R_transfer, data generation rates in GB/s).
type ByteRate float64

// Decimal byte rate multipliers.
const (
	BytePerSecond ByteRate = 1
	KBps                   = 1e3 * BytePerSecond
	MBps                   = 1e6 * BytePerSecond
	GBps                   = 1e9 * BytePerSecond
	TBps                   = 1e12 * BytePerSecond
)

// BytesPerSecond returns the rate as a plain float64.
func (r ByteRate) BytesPerSecond() float64 { return float64(r) }

// BitRate converts the byte rate to the equivalent bit rate.
func (r ByteRate) BitRate() BitRate { return BitRate(float64(r) * 8) }

// String formats the rate with an automatically chosen suffix.
func (r ByteRate) String() string {
	v := float64(r)
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= float64(TBps):
		return fmt.Sprintf("%s%.2f TB/s", neg, v/float64(TBps))
	case v >= float64(GBps):
		return fmt.Sprintf("%s%.2f GB/s", neg, v/float64(GBps))
	case v >= float64(MBps):
		return fmt.Sprintf("%s%.2f MB/s", neg, v/float64(MBps))
	case v >= float64(KBps):
		return fmt.Sprintf("%s%.2f KB/s", neg, v/float64(KBps))
	default:
		return fmt.Sprintf("%s%g B/s", neg, v)
	}
}

// FLOPS is a compute rate in floating-point operations per second.
type FLOPS float64

// FLOPS multipliers.
const (
	FLOPPerSecond FLOPS = 1
	MegaFLOPS           = 1e6 * FLOPPerSecond
	GigaFLOPS           = 1e9 * FLOPPerSecond
	TeraFLOPS           = 1e12 * FLOPPerSecond
	PetaFLOPS           = 1e15 * FLOPPerSecond
	ExaFLOPS            = 1e18 * FLOPPerSecond
)

// PerSecond returns the rate as a plain float64 FLOP/s.
func (f FLOPS) PerSecond() float64 { return float64(f) }

// String formats the compute rate with an automatically chosen suffix.
func (f FLOPS) String() string {
	v := float64(f)
	neg := ""
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v >= float64(ExaFLOPS):
		return fmt.Sprintf("%s%.2f EFLOPS", neg, v/float64(ExaFLOPS))
	case v >= float64(PetaFLOPS):
		return fmt.Sprintf("%s%.2f PFLOPS", neg, v/float64(PetaFLOPS))
	case v >= float64(TeraFLOPS):
		return fmt.Sprintf("%s%.2f TFLOPS", neg, v/float64(TeraFLOPS))
	case v >= float64(GigaFLOPS):
		return fmt.Sprintf("%s%.2f GFLOPS", neg, v/float64(GigaFLOPS))
	case v >= float64(MegaFLOPS):
		return fmt.Sprintf("%s%.2f MFLOPS", neg, v/float64(MegaFLOPS))
	default:
		return fmt.Sprintf("%s%g FLOP/s", neg, v)
	}
}

// Seconds converts float64 seconds to a time.Duration, rounding to the
// nearest nanosecond and saturating at the representable range instead
// of overflowing. Rounding (not truncating) keeps
// Seconds(d.Seconds()) == d for every Duration.
func Seconds(sec float64) time.Duration {
	if math.IsNaN(sec) {
		return 0
	}
	ns := math.Round(sec * 1e9)
	if ns >= math.MaxInt64 {
		return time.Duration(math.MaxInt64)
	}
	if ns <= math.MinInt64 {
		return time.Duration(math.MinInt64)
	}
	return time.Duration(ns)
}

// parseNumberSuffix splits "12.5GB" into 12.5 and "GB" (suffix trimmed
// and case preserved). Accepts an optional single space between number
// and suffix.
func parseNumberSuffix(s string) (float64, string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, "", fmt.Errorf("units: empty quantity")
	}
	i := 0
	for i < len(s) {
		c := s[i]
		if (c >= '0' && c <= '9') || c == '.' || c == '+' || c == '-' || c == 'e' || c == 'E' {
			// Keep consuming digits; be careful that 'E' may begin a
			// suffix like "EB". Only treat e/E as part of the number
			// when followed by a digit or sign.
			if c == 'e' || c == 'E' {
				if i+1 >= len(s) {
					break
				}
				n := s[i+1]
				if !(n >= '0' && n <= '9') && n != '+' && n != '-' {
					break
				}
			}
			i++
			continue
		}
		break
	}
	numPart := strings.TrimSpace(s[:i])
	sufPart := strings.TrimSpace(s[i:])
	if numPart == "" {
		return 0, "", fmt.Errorf("units: no numeric part in %q", s)
	}
	v, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, "", fmt.Errorf("units: bad number in %q: %w", s, err)
	}
	return v, sufPart, nil
}

// ParseByteSize parses strings like "0.5GB", "12.6 GB", "8MiB", "512B",
// "2048" (bare numbers are bytes).
func ParseByteSize(s string) (ByteSize, error) {
	v, suf, err := parseNumberSuffix(s)
	if err != nil {
		return 0, err
	}
	mult, ok := byteSuffixes[strings.ToUpper(suf)]
	if !ok {
		return 0, fmt.Errorf("units: unknown size suffix %q in %q", suf, s)
	}
	return ByteSize(v) * mult, nil
}

var byteSuffixes = map[string]ByteSize{
	"":    Byte,
	"B":   Byte,
	"KB":  KB,
	"MB":  MB,
	"GB":  GB,
	"TB":  TB,
	"PB":  PB,
	"KIB": KiB,
	"MIB": MiB,
	"GIB": GiB,
	"TIB": TiB,
}

// ParseBitRate parses strings like "25Gbps", "40 Gbps", "100Mbps",
// "1Tbps". Bare numbers are bits per second.
func ParseBitRate(s string) (BitRate, error) {
	v, suf, err := parseNumberSuffix(s)
	if err != nil {
		return 0, err
	}
	mult, ok := bitRateSuffixes[strings.ToUpper(suf)]
	if !ok {
		return 0, fmt.Errorf("units: unknown bit-rate suffix %q in %q", suf, s)
	}
	return BitRate(v) * mult, nil
}

var bitRateSuffixes = map[string]BitRate{
	"":     BitPerSecond,
	"BPS":  BitPerSecond,
	"KBPS": Kbps,
	"MBPS": Mbps,
	"GBPS": Gbps,
	"TBPS": Tbps,
	// Spelled forms.
	"BIT/S":  BitPerSecond,
	"KBIT/S": Kbps,
	"MBIT/S": Mbps,
	"GBIT/S": Gbps,
	"TBIT/S": Tbps,
}

// ParseByteRate parses strings like "2GB/s", "240 MB/s", "3GBps".
// Bare numbers are bytes per second.
func ParseByteRate(s string) (ByteRate, error) {
	v, suf, err := parseNumberSuffix(s)
	if err != nil {
		return 0, err
	}
	mult, ok := byteRateSuffixes[strings.ToUpper(suf)]
	if !ok {
		return 0, fmt.Errorf("units: unknown byte-rate suffix %q in %q", suf, s)
	}
	return ByteRate(v) * mult, nil
}

var byteRateSuffixes = map[string]ByteRate{
	"":     BytePerSecond,
	"B/S":  BytePerSecond,
	"KB/S": KBps,
	"MB/S": MBps,
	"GB/S": GBps,
	"TB/S": TBps,
}

// ParseFLOPS parses strings like "34TF", "20 TFLOPS", "1.5PF".
func ParseFLOPS(s string) (FLOPS, error) {
	v, suf, err := parseNumberSuffix(s)
	if err != nil {
		return 0, err
	}
	mult, ok := flopsSuffixes[strings.ToUpper(suf)]
	if !ok {
		return 0, fmt.Errorf("units: unknown FLOPS suffix %q in %q", suf, s)
	}
	return FLOPS(v) * mult, nil
}

var flopsSuffixes = map[string]FLOPS{
	"":       FLOPPerSecond,
	"F":      FLOPPerSecond,
	"FLOPS":  FLOPPerSecond,
	"MF":     MegaFLOPS,
	"MFLOPS": MegaFLOPS,
	"GF":     GigaFLOPS,
	"GFLOPS": GigaFLOPS,
	"TF":     TeraFLOPS,
	"TFLOPS": TeraFLOPS,
	"PF":     PetaFLOPS,
	"PFLOPS": PetaFLOPS,
	"EF":     ExaFLOPS,
	"EFLOPS": ExaFLOPS,
}

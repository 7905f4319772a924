package fsim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/units"
)

func TestPresetsValid(t *testing.T) {
	for i, fs := range []FileSystem{VoyagerGPFS(), EagleLustre()} {
		if err := fs.Validate(); err != nil {
			t.Errorf("file system preset %d invalid: %v", i, err)
		}
	}
	if err := APSToALCF().Validate(); err != nil {
		t.Errorf("DTN preset invalid: %v", err)
	}
}

func TestFileSystemValidate(t *testing.T) {
	fs := VoyagerGPFS()
	fs.CreateLatency = -time.Millisecond
	if err := fs.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative latency: %v", err)
	}
	fs = VoyagerGPFS()
	fs.WriteBandwidth = 0
	if err := fs.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero bandwidth: %v", err)
	}
}

func TestWriteTimeArithmetic(t *testing.T) {
	fs := FileSystem{
		CreateLatency:  time.Millisecond,
		CloseLatency:   time.Millisecond,
		WriteBandwidth: units.GBps,
		ReadBandwidth:  units.GBps,
	}
	// 10 files x 100 MB: meta 10*2ms = 20ms; payload 1 GB at 1 GB/s = 1 s.
	got, err := fs.WriteTime(10, 100*units.MB)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1020 * time.Millisecond; got != want {
		t.Fatalf("WriteTime = %v, want %v", got, want)
	}
}

func TestReadTimeArithmetic(t *testing.T) {
	fs := FileSystem{
		OpenLatency:    2 * time.Millisecond,
		CloseLatency:   time.Millisecond,
		WriteBandwidth: units.GBps,
		ReadBandwidth:  2 * units.GBps,
	}
	// 4 files x 1 GB: meta 4*3ms = 12ms; payload 4 GB at 2 GB/s = 2 s.
	got, err := fs.ReadTime(4, units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2012 * time.Millisecond; got != want {
		t.Fatalf("ReadTime = %v, want %v", got, want)
	}
}

func TestFileCountErrors(t *testing.T) {
	fs := VoyagerGPFS()
	if _, err := fs.WriteTime(0, units.MB); !errors.Is(err, ErrBadFileCount) {
		t.Errorf("zero files: %v", err)
	}
	if _, err := fs.ReadTime(-1, units.MB); !errors.Is(err, ErrBadFileCount) {
		t.Errorf("negative files: %v", err)
	}
	if _, err := fs.WriteTime(1, -units.MB); !errors.Is(err, ErrBadFileSize) {
		t.Errorf("negative size: %v", err)
	}
}

func TestSmallFilePenaltyDominates(t *testing.T) {
	// The Fig. 4 mechanism: equal volume, more files => strictly more
	// time, and for small files metadata dominates payload.
	fs := VoyagerGPFS()
	total := 12.08 * units.GB
	t1, err := fs.WriteTime(1, total)
	if err != nil {
		t.Fatal(err)
	}
	t1440, err := fs.WriteTime(1440, units.ByteSize(total.Bytes()/1440))
	if err != nil {
		t.Fatal(err)
	}
	if t1440 <= t1 {
		t.Fatalf("1440 files (%v) should exceed 1 file (%v)", t1440, t1)
	}
	// The difference must be exactly the extra metadata.
	extra := t1440 - t1
	wantExtra := 1439 * (fs.CreateLatency + fs.CloseLatency)
	if d := extra - wantExtra; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("extra = %v, want %v", extra, wantExtra)
	}
}

func TestDTNValidate(t *testing.T) {
	d := APSToALCF()
	d.Pipelining = 0
	if err := d.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero pipelining: %v", err)
	}
	d = APSToALCF()
	d.Rate = 0
	if err := d.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("zero rate: %v", err)
	}
	d = APSToALCF()
	d.PerFileSetup = -time.Second
	if err := d.Validate(); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative setup: %v", err)
	}
}

func TestThetaForGrowsWithFileCount(t *testing.T) {
	local, remote, d := VoyagerGPFS(), EagleLustre(), APSToALCF()
	total := 12.08 * units.GB
	var prev float64
	for i, n := range []int{1, 10, 144, 1440} {
		theta, err := ThetaFor(local, d, remote, n, total)
		if err != nil {
			t.Fatal(err)
		}
		if theta <= 1 {
			t.Fatalf("theta(%d files) = %v, must exceed 1", n, theta)
		}
		if i > 0 && theta <= prev {
			t.Fatalf("theta must grow with file count: %v after %v", theta, prev)
		}
		prev = theta
	}
	// 1440 small files must be catastrophically worse than 1 file.
	theta1, _ := ThetaFor(local, d, remote, 1, total)
	theta1440, _ := ThetaFor(local, d, remote, 1440, total)
	if theta1440 < 5*theta1 {
		t.Fatalf("theta1440 = %v vs theta1 = %v: small-file penalty too weak", theta1440, theta1)
	}
}

func TestThetaForErrors(t *testing.T) {
	local, remote, d := VoyagerGPFS(), EagleLustre(), APSToALCF()
	if _, err := ThetaFor(local, d, remote, 0, units.GB); !errors.Is(err, ErrBadFileCount) {
		t.Errorf("zero files: %v", err)
	}
	if _, err := ThetaFor(local, d, remote, 1, 0); !errors.Is(err, ErrBadFileSize) {
		t.Errorf("zero total: %v", err)
	}
	bad := d
	bad.Rate = 0
	if _, err := ThetaFor(local, bad, remote, 1, units.GB); err == nil {
		t.Error("bad DTN accepted")
	}
}

// Property: write time is monotone in both file count and file size.
func TestQuickWriteTimeMonotone(t *testing.T) {
	fs := VoyagerGPFS()
	f := func(n1, n2 uint8, s1, s2 uint16) bool {
		a, b := int(n1)+1, int(n2)+1
		if a > b {
			a, b = b, a
		}
		sa, sb := units.ByteSize(s1)*units.KB, units.ByteSize(s2)*units.KB
		if sa > sb {
			sa, sb = sb, sa
		}
		t1, err1 := fs.WriteTime(a, sa)
		t2, err2 := fs.WriteTime(b, sa)
		t3, err3 := fs.WriteTime(a, sb)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return t1 <= t2 && t1 <= t3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: theta approaches 1+overheads smoothly — for a single huge
// file, theta stays modest (< 3 with the presets).
func TestSingleLargeFileThetaModest(t *testing.T) {
	theta, err := ThetaFor(VoyagerGPFS(), APSToALCF(), EagleLustre(), 1, 100*units.GB)
	if err != nil {
		t.Fatal(err)
	}
	if theta >= 3 {
		t.Fatalf("theta(1 x 100GB) = %v, want < 3", theta)
	}
	if math.IsNaN(theta) {
		t.Fatal("NaN theta")
	}
}

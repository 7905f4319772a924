package pipeline

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/units"
)

func TestScenarioDerived(t *testing.T) {
	s := APSScan(33 * time.Millisecond)
	if s.Frames != 1440 {
		t.Fatalf("frames = %d", s.Frames)
	}
	// 2048*2048*2 = 8,388,608 bytes per frame; 1440 frames ~ 12.08 GB.
	if got := s.FrameSize.Bytes(); got != 8388608 {
		t.Fatalf("frame size = %v", got)
	}
	total := s.TotalBytes().Bytes()
	if math.Abs(total-1.2079595e10) > 1e6 {
		t.Fatalf("total = %v", total)
	}
	if got := s.GenerationEnd(); got != 1440*33*time.Millisecond {
		t.Fatalf("generation end = %v", got)
	}
	// ~254 MB/s at 33 ms/frame.
	rate := s.GenerationRate().BytesPerSecond()
	if math.Abs(rate-8388608/0.033) > 1 {
		t.Fatalf("generation rate = %v", rate)
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []Scenario{
		{Frames: 0, FrameSize: units.MB, FrameInterval: time.Second},
		{Frames: 1, FrameSize: 0, FrameInterval: time.Second},
		{Frames: 1, FrameSize: units.MB, FrameInterval: 0},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := Streaming(s, DefaultStreaming()); err == nil {
			t.Errorf("Streaming accepted case %d", i)
		}
		if _, err := FileBased(s, DefaultFileBased(1)); err == nil {
			t.Errorf("FileBased accepted case %d", i)
		}
	}
}

func TestStreamingGenerationBound(t *testing.T) {
	// Wire (1.5 GB/s) is far faster than generation (254 MB/s): the
	// stream finishes one frame-wire-time after the last frame.
	s := APSScan(33 * time.Millisecond)
	tl, err := Streaming(s, DefaultStreaming())
	if err != nil {
		t.Fatal(err)
	}
	genEnd := s.GenerationEnd()
	lag := tl.Completion - genEnd
	if lag <= 0 || lag > 50*time.Millisecond {
		t.Fatalf("streaming lag after generation = %v, want (0, 50ms]", lag)
	}
	if tl.FirstByteRemote <= 0 || tl.FirstByteRemote > 200*time.Millisecond {
		t.Fatalf("first byte = %v", tl.FirstByteRemote)
	}
	if tl.PostGeneration() != lag {
		t.Fatalf("PostGeneration = %v, want %v", tl.PostGeneration(), lag)
	}
}

func TestStreamingWireBound(t *testing.T) {
	// A slow wire (100 MB/s) below the generation rate (254 MB/s) makes
	// the transfer wire-bound: completion ~= total/rate.
	s := APSScan(33 * time.Millisecond)
	cfg := StreamingConfig{Rate: 100 * units.MBps, Startup: 0}
	tl, err := Streaming(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantWire := s.TotalBytes().Bytes() / 100e6
	if math.Abs(tl.Completion.Seconds()-(wantWire+0.033)) > 0.1 {
		t.Fatalf("completion = %v, want ~%v s", tl.Completion, wantWire)
	}
	if tl.Completion <= s.GenerationEnd() {
		t.Fatal("wire-bound stream cannot finish before generation")
	}
}

func TestStreamingValidate(t *testing.T) {
	s := APSScan(33 * time.Millisecond)
	if _, err := Streaming(s, StreamingConfig{Rate: 0}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Streaming(s, StreamingConfig{Rate: units.GBps, Startup: -time.Second}); err == nil {
		t.Error("negative startup accepted")
	}
}

func TestFileBasedAggregationBounds(t *testing.T) {
	s := APSScan(33 * time.Millisecond)
	for _, n := range []int{0, -1, 1441} {
		if _, err := FileBased(s, DefaultFileBased(n)); !errors.Is(err, ErrBadAggregation) {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestFileBasedSmallFilesWorst(t *testing.T) {
	// Fig. 4's ordering at the high frame rate: streaming beats every
	// file-based variant, and 1,440 per-frame files is the worst case.
	s := APSScan(33 * time.Millisecond)
	stream, err := Streaming(s, DefaultStreaming())
	if err != nil {
		t.Fatal(err)
	}
	completions := map[int]time.Duration{}
	for _, n := range []int{1, 10, 144, 1440} {
		tl, err := FileBased(s, DefaultFileBased(n))
		if err != nil {
			t.Fatal(err)
		}
		completions[n] = tl.Completion
		if tl.Completion <= stream.Completion {
			t.Errorf("file-based n=%d (%v) beat streaming (%v)", n, tl.Completion, stream.Completion)
		}
	}
	if completions[1440] <= completions[144] || completions[144] <= completions[10] {
		t.Fatalf("small-file penalty ordering broken: %v", completions)
	}
}

func TestHeadline97PercentReduction(t *testing.T) {
	// The abstract's claim: up to 97% lower end-to-end completion at
	// high data rates. With the per-frame (1,440 file) staging the
	// reduction must land in the 90s.
	s := APSScan(33 * time.Millisecond)
	stream, err := Streaming(s, DefaultStreaming())
	if err != nil {
		t.Fatal(err)
	}
	file, err := FileBased(s, DefaultFileBased(1440))
	if err != nil {
		t.Fatal(err)
	}
	red := ReductionPercent(stream, file)
	if red < 90 || red > 99 {
		t.Fatalf("reduction = %.1f%%, want in [90, 99] (stream %v, file %v)",
			red, stream.Completion, file.Completion)
	}
}

func TestLowRateFileBasedCompetitive(t *testing.T) {
	// At the low frame rate (0.33 s/frame) with a single aggregated
	// file, the staged path is within ~15% of streaming — the paper's
	// "file-based methods remain competitive at lower data rates or with
	// large aggregated files".
	s := APSScan(330 * time.Millisecond)
	stream, err := Streaming(s, DefaultStreaming())
	if err != nil {
		t.Fatal(err)
	}
	file, err := FileBased(s, DefaultFileBased(1))
	if err != nil {
		t.Fatal(err)
	}
	red := ReductionPercent(stream, file)
	if red < 0 || red > 15 {
		t.Fatalf("low-rate aggregated reduction = %.1f%%, want [0, 15] (stream %v, file %v)",
			red, stream.Completion, file.Completion)
	}
}

func TestFileBasedFirstByteOrdering(t *testing.T) {
	// More aggregation delays the first byte: a single file cannot move
	// until the whole scan is staged, while per-frame files start almost
	// immediately.
	s := APSScan(33 * time.Millisecond)
	one, err := FileBased(s, DefaultFileBased(1))
	if err != nil {
		t.Fatal(err)
	}
	perFrame, err := FileBased(s, DefaultFileBased(1440))
	if err != nil {
		t.Fatal(err)
	}
	if perFrame.FirstByteRemote >= one.FirstByteRemote {
		t.Fatalf("first byte: per-frame %v should precede single-file %v",
			perFrame.FirstByteRemote, one.FirstByteRemote)
	}
	if one.FirstByteRemote <= s.GenerationEnd() {
		t.Fatalf("single file first byte %v must follow generation end %v",
			one.FirstByteRemote, s.GenerationEnd())
	}
}

func TestFileBasedRemoteWriteBottleneck(t *testing.T) {
	// If the remote FS writes slower than the wire, it bounds the landing.
	s := APSScan(33 * time.Millisecond)
	cfg := DefaultFileBased(1)
	cfg.Remote.WriteBandwidth = 100 * units.MBps
	slow, err := FileBased(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := FileBased(s, DefaultFileBased(1))
	if err != nil {
		t.Fatal(err)
	}
	if slow.Completion <= fast.Completion {
		t.Fatalf("slow remote (%v) should delay completion vs fast (%v)",
			slow.Completion, fast.Completion)
	}
}

func TestFileBasedConfigValidation(t *testing.T) {
	s := APSScan(33 * time.Millisecond)
	cfg := DefaultFileBased(1)
	cfg.Local.WriteBandwidth = 0
	if _, err := FileBased(s, cfg); err == nil {
		t.Error("bad local FS accepted")
	}
	cfg = DefaultFileBased(1)
	cfg.Remote.ReadBandwidth = 0
	if _, err := FileBased(s, cfg); err == nil {
		t.Error("bad remote FS accepted")
	}
	cfg = DefaultFileBased(1)
	cfg.DTN.Rate = 0
	if _, err := FileBased(s, cfg); err == nil {
		t.Error("bad DTN accepted")
	}
}

func TestReductionPercentEdge(t *testing.T) {
	if ReductionPercent(Timeline{}, Timeline{}) != 0 {
		t.Error("degenerate reduction should be 0")
	}
	stream := Timeline{Completion: time.Second}
	file := Timeline{Completion: 10 * time.Second}
	if got := ReductionPercent(stream, file); math.Abs(got-90) > 1e-9 {
		t.Errorf("reduction = %v", got)
	}
}

func TestWriterFallsBehindSlowFS(t *testing.T) {
	// A local FS slower than the generation rate forces staging to lag
	// generation; completion must exceed the naive sum.
	s := APSScan(33 * time.Millisecond) // 254 MB/s generation
	cfg := DefaultFileBased(1440)
	cfg.Local.WriteBandwidth = 100 * units.MBps // cannot keep up
	tl, err := FileBased(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Staging alone needs total/100MBps ~ 120 s > generation 47.5 s.
	minStage := s.TotalBytes().Bytes() / 100e6
	if tl.Completion.Seconds() < minStage {
		t.Fatalf("completion %v cannot beat staging floor %v s", tl.Completion, minStage)
	}
}

func TestDefaultFileBasedUsesPresets(t *testing.T) {
	cfg := DefaultFileBased(10)
	if cfg.Local != fsim.VoyagerGPFS() || cfg.Remote != fsim.EagleLustre() {
		t.Fatalf("presets wrong: %+v / %+v", cfg.Local, cfg.Remote)
	}
	if cfg.AggregateFiles != 10 {
		t.Fatal("aggregate count not carried")
	}
}

package workload

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// sampleBinRow is a representative stored row: realistic magnitudes,
// a fractional SSS, and a short transfer-time population.
func sampleBinRow() SweepRow {
	return SweepRow{
		Concurrency:   6,
		ParallelFlows: 8,
		OfferedLoad:   0.96,
		Utilization:   0.893421,
		Worst:         2847 * time.Millisecond,
		P50:           1912 * time.Millisecond,
		P90:           2501 * time.Millisecond,
		P99:           2810 * time.Millisecond,
		SSS:           0.731,
		TransferTimes: []float64{1.91, 2.04, 2.85, 1.77},
	}
}

// legacyEnvelope is the JSON envelope pre-v3 processes wrapped every
// record in (inside a v2 segment frame, and as a whole loose v1 file),
// frozen here so tests can fabricate the exact bytes old processes left
// on disk.
type legacyEnvelope struct {
	Version     string          `json:"version"`
	Fingerprint string          `json:"fingerprint"`
	Payload     json.RawMessage `json:"payload"`
}

// encodeLegacySegRecord frames one v2 segment record — a JSON
// legacyEnvelope payload inside the RSG2 frame, the format every pre-v3
// segment holds — for the staleness and fuzz tests. The production code
// neither writes nor decodes these since the v4 bump (the version
// string is frozen here as a literal), so tests fabricate them to prove
// they read as dead space, never as rows.
func encodeLegacySegRecord(tb testing.TB, fp string, row SweepRow) []byte {
	tb.Helper()
	raw, err := json.Marshal(row)
	if err != nil {
		tb.Fatal(err)
	}
	payload, err := json.Marshal(legacyEnvelope{Version: "repro-cells/v2", Fingerprint: fp, Payload: raw})
	if err != nil {
		tb.Fatal(err)
	}
	return frameSegPayload(payload)
}

// rowsBitEqual compares two rows field-by-field at the bit level:
// float64s via Float64bits (so NaNs compare equal to themselves and
// -0 != +0), TransferTimes element-wise, nil and empty both read as
// "no times" on the decoded side.
func rowsBitEqual(a, b SweepRow) bool {
	if a.Concurrency != b.Concurrency || a.ParallelFlows != b.ParallelFlows ||
		a.Worst != b.Worst || a.P50 != b.P50 || a.P90 != b.P90 || a.P99 != b.P99 {
		return false
	}
	if math.Float64bits(a.OfferedLoad) != math.Float64bits(b.OfferedLoad) ||
		math.Float64bits(a.Utilization) != math.Float64bits(b.Utilization) ||
		math.Float64bits(a.SSS) != math.Float64bits(b.SSS) {
		return false
	}
	if len(a.TransferTimes) != len(b.TransferTimes) {
		return false
	}
	for i := range a.TransferTimes {
		if math.Float64bits(a.TransferTimes[i]) != math.Float64bits(b.TransferTimes[i]) {
			return false
		}
	}
	return true
}

// TestBinRecordRoundTrip: representative and adversarial rows encode
// into an RSG2 frame and decode back bit-exactly, and re-encoding the
// decoded row reproduces the original frame byte-for-byte (the v3
// encoding is canonical: one row, one byte string).
func TestBinRecordRoundTrip(t *testing.T) {
	long := make([]byte, binMaxFingerprint)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	cases := map[string]struct {
		fp  string
		row SweepRow
	}{
		"representative": {fp: "cell;dur=1;conc=6", row: sampleBinRow()},
		"no times":       {fp: "cell;empty", row: SweepRow{Concurrency: 1, ParallelFlows: 2}},
		"empty non-nil times": {fp: "cell;empty2", row: SweepRow{
			Concurrency: 1, ParallelFlows: 2, TransferTimes: []float64{},
		}},
		"negative coordinates and durations": {fp: "cell;neg", row: SweepRow{
			Concurrency: -3, ParallelFlows: math.MinInt32, Worst: -time.Second,
			P50: math.MinInt64, P99: math.MaxInt64, TransferTimes: []float64{-1},
		}},
		"non-finite floats": {fp: "cell;naninf", row: SweepRow{
			Concurrency: 1, ParallelFlows: 1,
			OfferedLoad: math.Inf(1), Utilization: math.Inf(-1), SSS: math.NaN(),
			TransferTimes: []float64{math.NaN(), math.Copysign(0, -1), math.MaxFloat64},
		}},
		"max-length fingerprint": {fp: string(long), row: sampleBinRow()},
		"one-byte fingerprint":   {fp: "x", row: sampleBinRow()},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			rec, err := encodeSegRecord(tc.fp, tc.row)
			if err != nil {
				t.Fatal(err)
			}
			wantSize, err := binRecordSize(tc.fp, tc.row)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec) != segHeaderSize+wantSize {
				t.Fatalf("frame is %d bytes, binRecordSize promises %d", len(rec), segHeaderSize+wantSize)
			}
			payload := rec[segHeaderSize:]
			if fp, ok := binRecordShape(payload); !ok || string(fp) != tc.fp {
				t.Fatalf("binRecordShape fingerprint = (%q, %t), want (%q, true)", fp, ok, tc.fp)
			}
			var out SweepRow
			if !decodeBinRecord(payload, tc.fp, &out) {
				t.Fatal("decode of a freshly encoded record failed")
			}
			if !rowsBitEqual(out, tc.row) {
				t.Fatalf("round-trip changed the row:\n got %+v\nwant %+v", out, tc.row)
			}
			re, err := encodeSegRecord(tc.fp, out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, rec) {
				t.Fatal("re-encoding the decoded row produced different bytes")
			}
		})
	}
}

// TestBinRecordSizeBounds: the rows the fixed layout cannot carry are
// rejected at encode time, before any bytes are written.
func TestBinRecordSizeBounds(t *testing.T) {
	row := sampleBinRow()
	if _, err := binRecordSize("", row); err == nil {
		t.Error("empty fingerprint accepted")
	}
	if _, err := binRecordSize(string(make([]byte, binMaxFingerprint+1)), row); err == nil {
		t.Error("fingerprint longer than uint16 accepted")
	}
	for _, bad := range []SweepRow{
		{Concurrency: math.MaxInt32 + 1, ParallelFlows: 1},
		{Concurrency: 1, ParallelFlows: math.MinInt32 - 1},
	} {
		if _, err := binRecordSize("fp", bad); err == nil {
			t.Errorf("coordinates (%d,%d) beyond int32 accepted", bad.Concurrency, bad.ParallelFlows)
		}
	}
}

// TestBinRecordRejectsDefects: every structural mutation of a valid
// payload — truncation at any byte, slack, a lying count, a zero
// fingerprint length, foreign magic — reads as a miss, and a valid
// payload never decodes under the wrong fingerprint.
func TestBinRecordRejectsDefects(t *testing.T) {
	fp := "cell;defects"
	rec, err := encodeSegRecord(fp, sampleBinRow())
	if err != nil {
		t.Fatal(err)
	}
	payload := rec[segHeaderSize:]
	var out SweepRow

	// The exact-length invariant makes EVERY strict prefix invalid.
	for n := 0; n < len(payload); n++ {
		if decodeBinRecord(payload[:n], fp, &out) {
			t.Fatalf("decode accepted a %d-byte prefix of a %d-byte payload", n, len(payload))
		}
	}
	if decodeBinRecord(append(append([]byte{}, payload...), 0), fp, &out) {
		t.Fatal("decode accepted a payload with a trailing slack byte")
	}

	mutate := func(f func(p []byte)) []byte {
		p := append([]byte{}, payload...)
		f(p)
		return p
	}
	if decodeBinRecord(mutate(func(p []byte) { p[0] = 'X' }), fp, &out) {
		t.Fatal("decode accepted foreign magic")
	}
	if decodeBinRecord(mutate(func(p []byte) {
		binary.LittleEndian.PutUint16(p[4:6], 0)
	}), fp, &out) {
		t.Fatal("decode accepted a zero-length fingerprint")
	}
	if decodeBinRecord(mutate(func(p []byte) {
		binary.LittleEndian.PutUint16(p[4:6], uint16(len(fp)+1))
	}), fp, &out) {
		t.Fatal("decode accepted an inflated fingerprint length")
	}
	if decodeBinRecord(mutate(func(p []byte) {
		o := binPreludeSize + len(fp) + binRowFixedSize - 4
		n := binary.LittleEndian.Uint32(p[o:])
		binary.LittleEndian.PutUint32(p[o:], n+1)
	}), fp, &out) {
		t.Fatal("decode accepted a lying transfer-time count")
	}
	if decodeBinRecord(payload, fp+"x", &out) || decodeBinRecord(payload, "cell;other", &out) {
		t.Fatal("decode served a record under the wrong fingerprint")
	}
	if !decodeBinRecord(payload, fp, &out) {
		t.Fatal("unmutated payload no longer decodes (mutate aliased the original)")
	}
}

// FuzzCellRecordRoundTrip: ANY representable SweepRow survives the v3
// encoding bit-exactly, the encoding is canonical (decode→re-encode
// reproduces the frame), and the embedded fingerprint is authoritative
// (the same payload never decodes under a different fingerprint).
func FuzzCellRecordRoundTrip(f *testing.F) {
	r := sampleBinRow()
	f.Add("cell;seed=1", int32(6), int32(8), r.OfferedLoad, r.Utilization,
		int64(r.Worst), int64(r.P50), int64(r.P90), int64(r.P99), r.SSS,
		[]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Add("x", int32(-1), int32(math.MinInt32), math.Inf(1), math.NaN(),
		int64(math.MinInt64), int64(0), int64(-1), int64(math.MaxInt64), -0.0,
		[]byte{})
	f.Fuzz(func(t *testing.T, fp string, conc, pflows int32,
		offered, util float64, worst, p50, p90, p99 int64, sss float64, timesRaw []byte) {
		if fp == "" {
			fp = "cell;empty-fp"
		}
		if len(fp) > binMaxFingerprint {
			fp = fp[:binMaxFingerprint]
		}
		if len(timesRaw) > 1<<16 {
			// Keep iterations fast; representability is what matters
			// (encode rejecting records over segMaxRecord is
			// TestBinRecordSizeBounds' business, not this property's).
			timesRaw = timesRaw[:1<<16]
		}
		var times []float64
		for o := 0; o+8 <= len(timesRaw); o += 8 {
			times = append(times, math.Float64frombits(binary.LittleEndian.Uint64(timesRaw[o:])))
		}
		row := SweepRow{
			Concurrency:   int(conc),
			ParallelFlows: int(pflows),
			OfferedLoad:   offered,
			Utilization:   util,
			Worst:         time.Duration(worst),
			P50:           time.Duration(p50),
			P90:           time.Duration(p90),
			P99:           time.Duration(p99),
			SSS:           sss,
			TransferTimes: times,
		}
		rec, err := encodeSegRecord(fp, row)
		if err != nil {
			t.Fatalf("encode rejected a representable row: %v", err)
		}
		payload := rec[segHeaderSize:]
		var out SweepRow
		if !decodeBinRecord(payload, fp, &out) {
			t.Fatal("decode of a freshly encoded record failed")
		}
		if !rowsBitEqual(out, row) {
			t.Fatalf("round-trip changed the row:\n got %+v\nwant %+v", out, row)
		}
		re, err := encodeSegRecord(fp, out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, rec) {
			t.Fatal("re-encoding the decoded row produced different bytes")
		}
		if decodeBinRecord(payload, fp+"?", &out) {
			t.Fatal("payload decoded under a foreign fingerprint")
		}
	})
}

// FuzzSegmentDecode hands the store an arbitrary byte string as its
// segment file: the open (index scan), one-cell reads through the
// stream, and a full compaction must never panic and never error, any
// row served must decode cleanly under its own fingerprint, and every
// well-formed record the read path accepted must survive compaction. Seeds cover a
// valid binary record, a v2 JSON record (dead space since the v4 bump —
// loading it must miss, never panic), a mixed segment, and torn /
// bit-flipped variants; the fuzzer mutates from there.
func FuzzSegmentDecode(f *testing.F) {
	const (
		fpBin    = "cell;fuzz=v3"
		fpLegacy = "cell;fuzz=v2"
	)
	row := sampleBinRow()
	valid, err := encodeSegRecord(fpBin, row)
	if err != nil {
		f.Fatal(err)
	}
	legacy := encodeLegacySegRecord(f, fpLegacy, row)
	f.Add([]byte{})
	f.Add(append([]byte{}, valid...))
	f.Add(append([]byte{}, legacy...))
	f.Add(append(append([]byte{}, valid...), legacy...))
	f.Add(append([]byte{}, valid[:len(valid)-3]...))
	flipped := append([]byte{}, valid...)
	flipped[segHeaderSize+9] ^= 0x20
	f.Add(flipped)

	probes := []string{fpBin, fpLegacy, "cell;fuzz=absent"}
	// Every probe asks for the sample row's Table 2 coordinates; a
	// record for any other cell is structurally foreign and misses.
	cell := GridCell{Concurrency: row.Concurrency, ParallelFlows: row.ParallelFlows}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segmentFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// A private store, NOT the process registry: every input gets a
		// fresh index load and tail scan over its own bytes.
		s := &segStore{dir: dir}
		defer s.close()

		var served []string
		for _, fp := range probes {
			out, ok := loadOne(s, fp, cell)
			if !ok {
				continue
			}
			// Whatever the store serves must be internally consistent: a
			// row that re-frames under its own fingerprint and decodes
			// back. (Only binary payloads decode since the v4 bump, so a
			// served row always re-encodes; the guard stays for safety.)
			rec, err := encodeSegRecord(fp, out)
			if err != nil {
				continue
			}
			var back SweepRow
			if !decodeBinRecord(rec[segHeaderSize:], fp, &back) {
				t.Fatalf("served row for %q does not survive its own re-encoding", fp)
			}
			served = append(served, fp)
		}

		// Compacting arbitrary bytes must succeed (defective records are
		// dead space, never errors) and keep every record that was
		// serving loads.
		if _, err := s.compact(); err != nil {
			t.Fatalf("compaction errored on fuzzed segment: %v", err)
		}
		for _, fp := range served {
			if _, ok := loadOne(s, fp, cell); !ok {
				t.Fatalf("record %q lost by compaction", fp)
			}
		}
	})
}

// FuzzSidecarDecode hands the binary sidecar decoder arbitrary bytes:
// it must never panic, never accept a buffer whose claimed entry count
// disagrees with its length, and be canonical on acceptance — any
// accepted input re-encodes to an equally decodable sidecar carrying
// the identical cover point and entry set. Seeds cover the empty index,
// a populated index, a torn header, a flipped CRC bit, an overrunning
// entry count, and the legacy JSON sidecar format.
func FuzzSidecarDecode(f *testing.F) {
	idx := map[segKey]segEntry{
		bytesSegKey([]byte("cell;fuzz=a")): {off: 0, length: 96},
		bytesSegKey([]byte("cell;fuzz=b")): {off: 96, length: 128},
	}
	valid := encodeSidecar(224, idx)
	f.Add([]byte{})
	f.Add(encodeSidecar(0, nil))
	f.Add(append([]byte{}, valid...))
	f.Add(append([]byte{}, valid[:sidecarHeaderSize-5]...))
	flipped := append([]byte{}, valid...)
	flipped[sidecarHeaderSize-1] ^= 0x08
	f.Add(flipped)
	over := append([]byte{}, valid...)
	binary.LittleEndian.PutUint32(over[16:20], 100)
	binary.LittleEndian.PutUint32(over[24:28], crc32.ChecksumIEEE(over[:24]))
	f.Add(over)
	f.Add([]byte(`{"version":"repro-cells/v2","segment_size":224,"entries":{}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		cover, entries, ok := decodeSidecar(data)
		if !ok {
			return
		}
		if cover < 0 {
			t.Fatalf("accepted negative cover point %d", cover)
		}
		if len(data) != sidecarHeaderSize+len(entries)*sidecarEntrySize {
			t.Fatalf("accepted %d bytes as %d entries (length/count disagree)", len(data), len(entries))
		}
		m := make(map[segKey]segEntry, len(entries))
		for _, ent := range entries {
			m[ent.key] = ent.e
		}
		re := encodeSidecar(cover, m)
		cover2, entries2, ok2 := decodeSidecar(re)
		if !ok2 || cover2 != cover || len(entries2) != len(m) {
			t.Fatal("re-encode of an accepted sidecar does not round-trip")
		}
		for _, ent := range entries2 {
			if m[ent.key] != ent.e {
				t.Fatalf("entry %x changed across the round-trip", ent.key)
			}
		}
	})
}

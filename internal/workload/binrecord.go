package workload

// The v3 cell-record payload: a fixed-layout binary encoding of one
// SweepRow plus its full fingerprint, carried inside the segment file's
// RSG2 CRC-guarded frames (segstore.go). v2 put a JSON envelope in
// the frame; at 10⁴–10⁶ cells the warm open was JSON-decode-bound
// (~20 µs/cell), and the CRC already guarantees integrity, so JSON
// inside the frame bought nothing but readability. The binary layout
// decodes in ~1 µs with exactly one allocation (the row's escaping
// TransferTimes slice) and every field offset is computable, so decode
// is bounds-checked arithmetic, never a parser.
//
// Layout (all integers little-endian, all floats IEEE-754 bits LE):
//
//	[4]  payload magic "RBC3" (distinguishes v3 payloads from v2 JSON,
//	     whose first byte is '{')
//	[2]  fingerprint length L (uint16)
//	[L]  fingerprint (the canonical cellFingerprint string)
//	[4]  Concurrency   (int32)
//	[4]  ParallelFlows (int32)
//	[8]  OfferedLoad   (float64)
//	[8]  Utilization   (float64)
//	[8]  Worst (int64 nanoseconds)
//	[8]  P50   (int64 nanoseconds)
//	[8]  P90   (int64 nanoseconds)
//	[8]  P99   (int64 nanoseconds)
//	[8]  SSS           (float64)
//	[4]  transfer-time count n (uint32)
//	[8n] TransferTimes (float64 each, client order)
//
// The payload length is exact: binFixedSize + L + 8n bytes, no more, no
// less — decode rejects any slack, so a CRC-valid but structurally
// foreign payload can never half-parse.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"
)

const (
	// binMagic brands a v3 binary payload inside an RSG2 frame.
	binMagic = "RBC3"

	// binPreludeSize is magic + fingerprint length word.
	binPreludeSize = 4 + 2
	// binRowFixedSize is the fixed-width row section between the
	// fingerprint and the transfer times: two int32 coordinates, five
	// float64s, four int64 durations, and the times count.
	binRowFixedSize = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 4
	// binFixedSize is a payload's size excluding the two variable parts
	// (fingerprint bytes, transfer times).
	binFixedSize = binPreludeSize + binRowFixedSize

	// binMaxFingerprint bounds the fingerprint length field (uint16).
	binMaxFingerprint = math.MaxUint16
)

// isBinPayload reports whether a framed payload is a v3 binary record
// (as opposed to a v2 JSON envelope).
func isBinPayload(p []byte) bool {
	return len(p) >= len(binMagic) && string(p[:len(binMagic)]) == binMagic
}

// binRecordSize returns the exact payload size encodeBinRecord will
// produce, or an error for rows the fixed layout cannot carry (out of
// practice these never occur: coordinates are small positive ints and a
// record's clients number in the thousands).
func binRecordSize(fp string, row SweepRow) (int, error) {
	if len(fp) == 0 || len(fp) > binMaxFingerprint {
		return 0, fmt.Errorf("workload: cell fingerprint length %d outside [1,%d]", len(fp), binMaxFingerprint)
	}
	if row.Concurrency < math.MinInt32 || row.Concurrency > math.MaxInt32 ||
		row.ParallelFlows < math.MinInt32 || row.ParallelFlows > math.MaxInt32 {
		return 0, fmt.Errorf("workload: cell coordinates (%d,%d) exceed int32", row.Concurrency, row.ParallelFlows)
	}
	n := len(row.TransferTimes)
	if int64(binFixedSize)+int64(len(fp))+8*int64(n) > segMaxRecord {
		return 0, fmt.Errorf("workload: cell record with %d transfer times exceeds the segment record bound", n)
	}
	return binFixedSize + len(fp) + 8*n, nil
}

// encodeBinRecord writes the payload into buf, which must be exactly
// binRecordSize bytes (callers size it from binRecordSize, so the frame,
// payload and CRC are built in one buffer with zero copies).
func encodeBinRecord(buf []byte, fp string, row SweepRow) {
	copy(buf, binMagic)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(fp)))
	copy(buf[binPreludeSize:], fp)
	o := binPreludeSize + len(fp)
	binary.LittleEndian.PutUint32(buf[o:], uint32(int32(row.Concurrency)))
	binary.LittleEndian.PutUint32(buf[o+4:], uint32(int32(row.ParallelFlows)))
	binary.LittleEndian.PutUint64(buf[o+8:], math.Float64bits(row.OfferedLoad))
	binary.LittleEndian.PutUint64(buf[o+16:], math.Float64bits(row.Utilization))
	binary.LittleEndian.PutUint64(buf[o+24:], uint64(row.Worst))
	binary.LittleEndian.PutUint64(buf[o+32:], uint64(row.P50))
	binary.LittleEndian.PutUint64(buf[o+40:], uint64(row.P90))
	binary.LittleEndian.PutUint64(buf[o+48:], uint64(row.P99))
	binary.LittleEndian.PutUint64(buf[o+56:], math.Float64bits(row.SSS))
	binary.LittleEndian.PutUint32(buf[o+64:], uint32(len(row.TransferTimes)))
	o += binRowFixedSize
	for _, t := range row.TransferTimes {
		binary.LittleEndian.PutUint64(buf[o:], math.Float64bits(t))
		o += 8
	}
}

// binRecordShape validates a payload's structure without decoding it:
// magic, fingerprint bounds, and the exact-length invariant. It returns
// the fingerprint bytes (aliasing p — callers must not retain them past
// p's lifetime) so scan-time keying and load-time comparison both run
// allocation-free.
func binRecordShape(p []byte) (fpBytes []byte, ok bool) {
	if !isBinPayload(p) || len(p) < binFixedSize {
		return nil, false
	}
	l := int(binary.LittleEndian.Uint16(p[4:6]))
	if l == 0 || len(p) < binFixedSize+l {
		return nil, false
	}
	n := int(binary.LittleEndian.Uint32(p[binPreludeSize+l+binRowFixedSize-4:]))
	if n < 0 || len(p) != binFixedSize+l+8*n {
		return nil, false
	}
	return p[binPreludeSize : binPreludeSize+l], true
}

// decodeBinRecord parses a v3 payload into out, reporting false — a
// miss, never an error or a panic — on any structural defect or on a
// fingerprint that is not fp (a prefix collision or a record relocated
// under the wrong key: the embedded fingerprint is the authority). The
// only allocation is out's TransferTimes slice.
func decodeBinRecord(p []byte, fp string, out *SweepRow) bool {
	fpBytes, ok := binRecordShape(p)
	if !ok || string(fpBytes) != fp {
		return false
	}
	o := binPreludeSize + len(fpBytes)
	out.Concurrency = int(int32(binary.LittleEndian.Uint32(p[o:])))
	out.ParallelFlows = int(int32(binary.LittleEndian.Uint32(p[o+4:])))
	out.OfferedLoad = math.Float64frombits(binary.LittleEndian.Uint64(p[o+8:]))
	out.Utilization = math.Float64frombits(binary.LittleEndian.Uint64(p[o+16:]))
	out.Worst = time.Duration(binary.LittleEndian.Uint64(p[o+24:]))
	out.P50 = time.Duration(binary.LittleEndian.Uint64(p[o+32:]))
	out.P90 = time.Duration(binary.LittleEndian.Uint64(p[o+40:]))
	out.P99 = time.Duration(binary.LittleEndian.Uint64(p[o+48:]))
	out.SSS = math.Float64frombits(binary.LittleEndian.Uint64(p[o+56:]))
	n := int(binary.LittleEndian.Uint32(p[o+64:]))
	o += binRowFixedSize
	out.TransferTimes = nil
	if n > 0 {
		out.TransferTimes = make([]float64, n)
		for i := range out.TransferTimes {
			out.TransferTimes[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[o:]))
			o += 8
		}
	}
	return true
}

// ── The binary index sidecar ─────────────────────────────────────────
//
// Since v3 the sidecar (`cells.idx`) is a fixed-layout binary file
// instead of JSON: at 10⁵–10⁶ entries the JSON sidecar cost more to
// parse than every record decode it located (hundreds of ms of
// map[string]-building and hex-string allocation per warm open). The
// binary layout loads in one read + one pass of bounds-checked
// arithmetic.
//
// Layout (all integers little-endian):
//
//	[4]  magic "RSX1"
//	[4]  version tag: CRC-32 (IEEE) of the CellRecordVersion string —
//	     the same generation guard the JSON sidecar's version field
//	     carried; a sidecar written by a different record generation
//	     fails this check and the loader falls back to the full scan
//	     (migration by rescan — CellRecordVersion itself does NOT bump
//	     for a sidecar-format change, because the records are unchanged)
//	[8]  cover point: the segment size (int64) the entries describe;
//	     records appended past it are recovered by the tail scan
//	[4]  entry count n (uint32)
//	[4]  CRC-32 (IEEE) of the n×32-byte entries section
//	[4]  CRC-32 (IEEE) of the 24 header bytes above
//	[32]×n entries: [16] fingerprint hash (segKey) +
//	               [8] record offset (int64) + [8] record length (int64)
//
// The file length must be exactly sidecarHeaderSize + 32n — any slack,
// truncation, CRC mismatch, or unknown magic (including the legacy JSON
// sidecar, whose first byte is '{') rejects the whole sidecar and the
// loader degrades to the full sequential scan. The sidecar stays what
// it always was: an accelerator and a locator, never an authority.

const (
	// sidecarMagic brands the binary sidecar format.
	sidecarMagic = "RSX1"
	// sidecarHeaderSize is magic + version tag + cover point + entry
	// count + entries CRC + header CRC.
	sidecarHeaderSize = 4 + 4 + 8 + 4 + 4 + 4
	// sidecarEntrySize is one packed [fp-hash, offset, length] entry.
	sidecarEntrySize = 16 + 8 + 8
)

// sidecarVersionTag derives the 4-byte generation guard from the
// record-version string.
func sidecarVersionTag() uint32 {
	return crc32.ChecksumIEEE([]byte(CellRecordVersion))
}

// sidecarEntry is one decoded sidecar line: a record's index key and
// its location in the segment file.
type sidecarEntry struct {
	key segKey
	e   segEntry
}

// decodeSidecar parses a binary sidecar, reporting false — degrade to
// full scan, never an error — on any defect: short or oversized file,
// bad magic (including a legacy JSON sidecar), version tag from another
// record generation, header or entries CRC mismatch, an entry count
// that does not exactly match the file length, or a negative cover
// point. It never panics on arbitrary input (fuzzed by
// FuzzSidecarDecode).
func decodeSidecar(data []byte) (cover int64, entries []sidecarEntry, ok bool) {
	if len(data) < sidecarHeaderSize || string(data[:4]) != sidecarMagic {
		return 0, nil, false
	}
	if binary.LittleEndian.Uint32(data[sidecarHeaderSize-4:]) !=
		crc32.ChecksumIEEE(data[:sidecarHeaderSize-4]) {
		return 0, nil, false
	}
	if binary.LittleEndian.Uint32(data[4:8]) != sidecarVersionTag() {
		return 0, nil, false
	}
	cover = int64(binary.LittleEndian.Uint64(data[8:16]))
	if cover < 0 {
		return 0, nil, false
	}
	n := int64(binary.LittleEndian.Uint32(data[16:20]))
	if int64(len(data)) != sidecarHeaderSize+n*sidecarEntrySize {
		return 0, nil, false
	}
	body := data[sidecarHeaderSize:]
	if binary.LittleEndian.Uint32(data[20:24]) != crc32.ChecksumIEEE(body) {
		return 0, nil, false
	}
	entries = make([]sidecarEntry, n)
	for i := range entries {
		rec := body[i*sidecarEntrySize:]
		copy(entries[i].key[:], rec[:16])
		entries[i].e = segEntry{
			off:    int64(binary.LittleEndian.Uint64(rec[16:24])),
			length: int64(binary.LittleEndian.Uint64(rec[24:32])),
		}
	}
	return cover, entries, true
}

// encodeSidecar renders an index as a binary sidecar covering the
// segment up to cover bytes. The entry order is unspecified (map
// iteration): the sidecar is a locator set, and decodeSidecar's caller
// rebuilds a map anyway.
func encodeSidecar(cover int64, index map[segKey]segEntry) []byte {
	buf := make([]byte, sidecarHeaderSize+len(index)*sidecarEntrySize)
	copy(buf, sidecarMagic)
	binary.LittleEndian.PutUint32(buf[4:8], sidecarVersionTag())
	binary.LittleEndian.PutUint64(buf[8:16], uint64(cover))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(len(index)))
	o := sidecarHeaderSize
	for key, e := range index {
		copy(buf[o:], key[:])
		binary.LittleEndian.PutUint64(buf[o+16:], uint64(e.off))
		binary.LittleEndian.PutUint64(buf[o+24:], uint64(e.length))
		o += sidecarEntrySize
	}
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(buf[sidecarHeaderSize:]))
	binary.LittleEndian.PutUint32(buf[sidecarHeaderSize-4:sidecarHeaderSize], crc32.ChecksumIEEE(buf[:sidecarHeaderSize-4]))
	return buf
}

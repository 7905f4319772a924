package workload

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/tcpsim"
	"repro/internal/units"
)

// segPathOf / idxPathOf name the store files for a test directory.
func segPathOf(dir string) string { return filepath.Join(dir, segmentFileName) }
func idxPathOf(dir string) string { return filepath.Join(dir, segmentIndexName) }

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// segEntryOf returns the segment location of one cell's record, read
// through the live store (same package, so tests may look).
func segEntryOf(t *testing.T, dir string, a Axes, cellIdx int) (key segKey, e segEntry) {
	t.Helper()
	na := a.normalized()
	cells := na.Cells()
	fp := cellFingerprint(na.Experiment(cells[cellIdx]))
	key = fingerprintSegKey(fp)
	s := segmentStore(dir)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLoaded()
	e, ok := s.index[key]
	if !ok {
		t.Fatalf("cell %d not in segment index", cellIdx)
	}
	return key, e
}

// readSidecarFile decodes dir's binary sidecar into a cover point and
// an entry map, failing the test on any decode defect.
func readSidecarFile(t *testing.T, dir string) (int64, map[segKey]segEntry) {
	t.Helper()
	data, err := os.ReadFile(idxPathOf(dir))
	if err != nil {
		t.Fatal(err)
	}
	cover, entries, ok := decodeSidecar(data)
	if !ok {
		t.Fatal("sidecar does not decode")
	}
	m := make(map[segKey]segEntry, len(entries))
	for _, ent := range entries {
		m[ent.key] = ent.e
	}
	return cover, m
}

// writeSidecarFile renders a (possibly doctored) index as dir's
// sidecar, CRCs recomputed — the file is structurally valid, only its
// claims are wrong.
func writeSidecarFile(t *testing.T, dir string, cover int64, entries map[segKey]segEntry) {
	t.Helper()
	if err := os.WriteFile(idxPathOf(dir), encodeSidecar(cover, entries), 0o644); err != nil {
		t.Fatal(err)
	}
}

// loadOne serves one cell's record through the read path the way a
// one-cell request does, reporting whether the record was served.
func loadOne(s *segStore, fp string, c GridCell) (SweepRow, bool) {
	rows := make([]GridRow, 1)
	s.loadStream([]string{fp}, []GridCell{c}, rows, 1)
	return rows[0].SweepRow, len(rows[0].TransferTimes) > 0
}

// frameSegPayload frames an arbitrary payload as a segment record with
// a valid header and CRC — a record only decode can reject.
func frameSegPayload(payload []byte) []byte {
	buf := make([]byte, segHeaderSize+len(payload))
	copy(buf, segMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(payload))
	copy(buf[segHeaderSize:], payload)
	return buf
}

// requestShape serves grid a through cache c and returns its rows in
// grid order. The shapes differ in how the read path sees the
// requested records, not in what it must return.
type requestShape func(t *testing.T, c *GridCache, a Axes) []GridRow

// wholeGrid is one request for every cell: neighbouring records
// coalesce into shared runs, so a defect sits in a block beside healthy
// records.
func wholeGrid(t *testing.T, c *GridCache, a Axes) []GridRow {
	t.Helper()
	g, err := c.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.Rows
}

// cellByCell is one one-cell request per cell of a flat grid: every
// read is a one-record run. Rows are re-indexed to their position in a.
func cellByCell(t *testing.T, c *GridCache, a Axes) []GridRow {
	t.Helper()
	cells := a.normalized().Cells()
	rows := make([]GridRow, len(cells))
	for i, cell := range cells {
		one := a
		one.Concurrencies = []int{cell.Concurrency}
		one.ParallelFlows = []int{cell.ParallelFlows}
		one.TransferSizes = []units.ByteSize{cell.TransferSize}
		one.RTTs = []time.Duration{cell.RTT}
		one.Buffers = []units.ByteSize{cell.Buffer}
		one.CCs = []tcpsim.CongestionControl{cell.CC}
		one.CrossFractions = []float64{cell.CrossFraction}
		g, err := c.Get(one, 0)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = g.Rows[0]
		rows[i].Cell.Index = cell.Index
	}
	return rows
}

// TestSegmentWarmGrid is the v2 persistence contract: a cold cached run
// writes every cell into ONE segment file plus an index sidecar; a
// fresh process (ResetSegmentStores) warm-opens the grid with zero
// engine runs, byte-identical to a cold serial RunGrid.
func TestSegmentWarmGrid(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()

	cold, err := RunGrid(a) // reference: cold serial, no caches
	if err != nil {
		t.Fatal(err)
	}
	seedCellRecords(t, dir, a)

	if _, err := os.Stat(segPathOf(dir)); err != nil {
		t.Fatalf("segment file not written: %v", err)
	}
	if _, err := os.Stat(idxPathOf(dir)); err != nil {
		t.Fatalf("index sidecar not written: %v", err)
	}
	if n := looseRecordCount(t, dir); n != 0 {
		t.Fatalf("v2 cold run wrote %d loose files, want 0", n)
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	before := EngineRunCount()
	g, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 0 {
		t.Fatalf("segment warm open ran %d experiments, want 0", runs)
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, cold.Rows) {
		t.Fatal("segment-loaded rows not byte-identical to cold serial RunGrid")
	}
}

// TestSegmentIndexSidecarGrows: the sidecar is rewritten once per run
// and accumulates every grid's records.
func TestSegmentIndexSidecarGrows(t *testing.T) {
	dir := t.TempDir()
	first := fastAxes()
	first.Buffers = first.Buffers[:1] // 8 cells
	seedCellRecords(t, dir, first)

	if _, entries := readSidecarFile(t, dir); len(entries) != first.Size() {
		t.Fatalf("sidecar holds %d entries after first run, want %d", len(entries), first.Size())
	}

	seedCellRecords(t, dir, fastAxes()) // 16 cells, 8 shared
	cover, entries := readSidecarFile(t, dir)
	if len(entries) != fastAxes().Size() {
		t.Fatalf("sidecar holds %d entries after second run, want %d", len(entries), fastAxes().Size())
	}
	if fi, err := os.Stat(segPathOf(dir)); err != nil || cover != fi.Size() {
		t.Fatalf("sidecar covers %d bytes, segment is %v bytes (err %v)", cover, fi, err)
	}
}

// TestSegmentWarmWithoutSidecar: deleting the sidecar costs a full
// sequential scan, never a recompute — the index is an accelerator,
// the segment is the data.
func TestSegmentWarmWithoutSidecar(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()
	rows := seedCellRecords(t, dir, a)
	if err := os.Remove(idxPathOf(dir)); err != nil {
		t.Fatal(err)
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	before := EngineRunCount()
	g, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 0 {
		t.Fatalf("sidecar-less warm open ran %d experiments, want 0 (scan must recover the index)", runs)
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, rows) {
		t.Fatal("scan-recovered rows differ")
	}
}

// TestSegmentCompaction: compacting a freshly seeded directory keeps
// every record, the compacted segment serves the grid warm with zero
// engine runs, and repeated compaction is stable.
func TestSegmentCompaction(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()
	rows := seedCellRecords(t, dir, a)

	st, err := CompactDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != a.Size() {
		t.Fatalf("compaction stats = %+v, want %d records", st, a.Size())
	}
	if fi, err := os.Stat(segPathOf(dir)); err != nil || fi.Size() != st.SegmentBytes {
		t.Fatalf("segment size %v != reported %d (err %v)", fi, st.SegmentBytes, err)
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	before := EngineRunCount()
	g, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != 0 {
		t.Fatalf("compacted warm open ran %d experiments, want 0", runs)
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, rows) {
		t.Fatal("compacted rows differ")
	}

	// Idempotence: compacting a compacted store reclaims nothing.
	st2, err := CompactDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != a.Size() || st2.ReclaimedBytes != 0 {
		t.Errorf("re-compaction stats = %+v, want %d records, 0 reclaimed", st2, a.Size())
	}
}

// TestCompactionEmptyStateIsNoOp: compacting a directory with no cache
// state fabricates nothing — no segment, no sidecar, no directory.
func TestCompactionEmptyStateIsNoOp(t *testing.T) {
	dir := t.TempDir()
	st, err := CompactDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st != (CompactStats{}) {
		t.Errorf("empty-dir compaction stats = %+v, want zero", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("empty-dir compaction created %d files", len(entries))
	}

	// A directory that does not exist stays nonexistent.
	missing := filepath.Join(dir, "never-created")
	if _, err := CompactDiskCache(missing); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Errorf("compaction created the missing directory (stat err = %v)", err)
	}
}

// writeLooseCellFiles writes one loose v1 per-cell file per grid cell —
// the layout builds before the segment store wrote — and returns the
// cold reference rows.
func writeLooseCellFiles(t *testing.T, dir string, a Axes) []GridRow {
	t.Helper()
	g, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	na := a.normalized()
	for _, row := range g.Rows {
		fp := cellFingerprint(na.Experiment(row.Cell))
		raw, err := json.Marshal(row.SweepRow)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(legacyEnvelope{Version: "repro-cells/v1", Fingerprint: fp, Payload: raw})
		if err != nil {
			t.Fatal(err)
		}
		key := fingerprintSegKey(fp)
		if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(key[:])+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return g.Rows
}

// TestLooseFilesAreFullMiss: a directory holding only loose v1 per-cell
// files is a clean full miss. Nothing reads them: compaction finds no
// cache state, every cell executes, the rows are byte-identical to the
// cold reference, and PurgeDiskCache removes the files.
func TestLooseFilesAreFullMiss(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()
	rows := writeLooseCellFiles(t, dir, a)

	if st, err := CompactDiskCache(dir); err != nil || st != (CompactStats{}) {
		t.Fatalf("compaction of a loose-only directory = %+v, %v; want a no-op", st, err)
	}
	ResetSegmentStores()
	c := NewGridCache()
	c.SetDiskDir(dir)
	base := ReadCacheStats()
	g, err := c.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(base)
	if d.EngineRuns != int64(a.Size()) || d.CellsFromSegment != 0 {
		t.Fatalf("loose-only stats = %v, want all %d cells executed", d, a.Size())
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, rows) {
		t.Fatal("rows differ from the cold reference")
	}
	if err := PurgeDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if n := looseRecordCount(t, dir); n != 0 {
		t.Fatalf("%d loose files survived PurgeDiskCache, want 0", n)
	}
}

// segCorruptionCases damages a seeded segment store in every way the
// loader must survive. Each returns how many engine runs the recovery
// is allowed (== the number of damaged cells).
var segCorruptionCases = map[string]func(t *testing.T, dir string, a Axes) int{
	// A crash mid-append leaves a half-written record at the tail. With
	// the sidecar gone too (the run never flushed), the scan must
	// recover every whole record and recompute only the torn one.
	"truncated tail record": func(t *testing.T, dir string, a Axes) int {
		if err := os.Remove(idxPathOf(dir)); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(segPathOf(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(segPathOf(dir), fi.Size()-10); err != nil {
			t.Fatal(err)
		}
		return 1
	},
	// Bit rot inside one record's payload: the CRC catches it, that
	// cell alone recomputes.
	"bad crc": func(t *testing.T, dir string, a Axes) int {
		_, e := segEntryOf(t, dir, a, 3)
		ResetSegmentStores()
		f, err := os.OpenFile(segPathOf(dir), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		pos := e.off + segHeaderSize + 5
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, pos); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b, pos); err != nil {
			t.Fatal(err)
		}
		return 1
	},
	// A sidecar entry pointing at the wrong offset: the bytes there
	// fail the magic/CRC check, so the mismatch is a single-cell miss,
	// never a wrong row.
	"index/segment mismatch": func(t *testing.T, dir string, a Axes) int {
		key, _ := segEntryOf(t, dir, a, 5)
		ResetSegmentStores()
		cover, entries := readSidecarFile(t, dir)
		e, ok := entries[key]
		if !ok {
			t.Fatal("key missing from sidecar")
		}
		e.off += 7
		entries[key] = e
		writeSidecarFile(t, dir, cover, entries)
		return 1
	},
	// A record whose length field lies (larger than the payload the
	// CRC was computed over): caught by the CRC, single-cell miss.
	"corrupt length field": func(t *testing.T, dir string, a Axes) int {
		_, e := segEntryOf(t, dir, a, 7)
		ResetSegmentStores()
		f, err := os.OpenFile(segPathOf(dir), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 4)
		binary.LittleEndian.PutUint32(b, uint32(e.length-segHeaderSize+4))
		if _, err := f.WriteAt(b, e.off+4); err != nil {
			t.Fatal(err)
		}
		return 1
	},
	// A sidecar whose cover point (segment_size) lands mid-record — a
	// stale sidecar after another writer appended, or a sidecar written
	// against a since-changed segment. The loader must fall back to a
	// full scan and recover every record; it must NOT truncate or
	// otherwise damage the segment (zero damaged cells).
	"stale sidecar cover point": func(t *testing.T, dir string, a Axes) int {
		cover, entries := readSidecarFile(t, dir)
		writeSidecarFile(t, dir, cover-10, entries) // mid-record: not a frame boundary
		segBefore, err := os.Stat(segPathOf(dir))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			// Recovery must never shrink the segment: bytes a stale
			// sidecar hides may be another writer's live records.
			if fi, err := os.Stat(segPathOf(dir)); err == nil && fi.Size() < segBefore.Size() {
				t.Errorf("segment shrank from %d to %d bytes during recovery", segBefore.Size(), fi.Size())
			}
		})
		return 0
	},
	// A crash mid-append that tears the tail record INSIDE the v3 binary
	// row's fixed fields — past the fingerprint, mid-P50 — with the
	// sidecar gone too. The frame length says bytes the file no longer
	// has, so the scan stops there; only the torn cell recomputes.
	"truncated tail mid-row-field": func(t *testing.T, dir string, a Axes) int {
		_, entries := readSidecarFile(t, dir)
		var off, length int64 = -1, 0
		for _, e := range entries {
			if e.off > off {
				off, length = e.off, e.length
			}
		}
		if err := os.Remove(idxPathOf(dir)); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(segPathOf(dir))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 2)
		if _, err := f.ReadAt(b, off+segHeaderSize+4); err != nil {
			t.Fatal(err)
		}
		fpLen := int64(binary.LittleEndian.Uint16(b))
		cut := off + segHeaderSize + binPreludeSize + fpLen + 37 // 37 bytes into the fixed row: mid-P50
		if cut >= off+length {
			t.Fatalf("cut %d not inside the tail record [%d,%d)", cut, off, off+length)
		}
		if err := os.Truncate(segPathOf(dir), cut); err != nil {
			t.Fatal(err)
		}
		return 1
	},
	// A flipped bit in a mid-segment record's frame length word: the
	// framed length no longer matches the indexed one, so the read is
	// rejected before any decode — a single-cell miss.
	"flipped length word bit": func(t *testing.T, dir string, a Axes) int {
		_, e := segEntryOf(t, dir, a, 9)
		ResetSegmentStores()
		f, err := os.OpenFile(segPathOf(dir), os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, e.off+4); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x01
		if _, err := f.WriteAt(b, e.off+4); err != nil {
			t.Fatal(err)
		}
		return 1
	},
	// A v2/v3 mixed segment — the directory a pre-v3 writer once
	// touched: one cell's record re-appended as a v2 JSON envelope past
	// the sidecar's cover point. Since the v4 bump the tail scan stops
	// at the v2 frame (dead space, never decoded) — but the cell's
	// binary record inside the cover still serves it, so NO cell may
	// recompute (zero damaged cells) and appends must still go to the
	// physical EOF past the dead frame.
	"v2/v3 mixed segment": func(t *testing.T, dir string, a Axes) int {
		na := a.normalized()
		cell := na.Cells()[6]
		fp := cellFingerprint(na.Experiment(cell))
		row, ok := loadOne(segmentStore(dir), fp, cell)
		if !ok {
			t.Fatal("cell 6 not loadable from the seeded segment")
		}
		ResetSegmentStores()
		f, err := os.OpenFile(segPathOf(dir), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(encodeLegacySegRecord(t, fp, row)); err != nil {
			t.Fatal(err)
		}
		return 0
	},
	// A compaction that crashed between writing its temp files and the
	// rename leaves .seg-*.tmp/.idx-*.tmp litter. The store must ignore
	// it entirely (zero damaged cells).
	"mid-compaction crash leftovers": func(t *testing.T, dir string, a Axes) int {
		for _, name := range []string{".seg-123456.tmp", ".idx-123456.tmp", ".cell-123456.tmp"} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("half-written garbage"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return 0
	},
}

// TestSegmentCorruptionRecovery: every class of segment damage is a
// miss for the damaged cells ONLY — recovery recomputes exactly those,
// assembles byte-identical to the cold reference, repairs the store
// (follow-up warm open: zero runs), and a subsequent compaction leaves
// a clean directory. Here every cell is its own one-cell request, so
// each damaged record is read as a one-record run.
func TestSegmentCorruptionRecovery(t *testing.T) {
	runSegCorruptionRecovery(t, cellByCell)
}

// TestSegmentCorruptionRecoveryDense runs the same table with the whole
// grid in one request: a damaged record shares its run with healthy
// neighbours, which must still be served.
func TestSegmentCorruptionRecoveryDense(t *testing.T) {
	runSegCorruptionRecovery(t, wholeGrid)
}

func runSegCorruptionRecovery(t *testing.T, serve requestShape) {
	a := fastAxes()
	cold, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	want := gridRowsJSON(t, cold.Rows)

	for name, corrupt := range segCorruptionCases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seedCellRecords(t, dir, a)
			ResetSegmentStores()
			wantRuns := int64(corrupt(t, dir, a))
			ResetSegmentStores()

			c := NewGridCache()
			c.SetDiskDir(dir)
			before := EngineRunCount()
			rows := serve(t, c, a)
			if runs := EngineRunCount() - before; runs != wantRuns {
				t.Errorf("recovery ran %d experiments, want %d (only the damaged cells)", runs, wantRuns)
			}
			if gridRowsJSON(t, rows) != want {
				t.Error("recovered rows differ from cold reference")
			}

			// The recompute must leave a repaired store behind.
			ResetSegmentStores()
			warm := NewGridCache()
			warm.SetDiskDir(dir)
			before = EngineRunCount()
			if _, err := warm.Get(a, 0); err != nil {
				t.Fatal(err)
			}
			if runs := EngineRunCount() - before; runs != 0 {
				t.Errorf("store not repaired: follow-up run recomputed %d cells", runs)
			}

			// Compaction after recovery reclaims any dead space and
			// removes crash litter; the directory then holds exactly the
			// two store files (plus nothing else we created).
			if _, err := CompactDiskCache(dir); err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range entries {
				if n := ent.Name(); n != segmentFileName && n != segmentIndexName && n != lockFileName {
					t.Errorf("unexpected file %q after compaction", n)
				}
			}
		})
	}
}

// TestSegmentWarmLargeGrid is the acceptance criterion at unit scale
// guarded for -short: a ≥2048-cell grid round-trips through a compacted
// segment file with zero engine runs, byte-identical to cold serial
// RunGrid (the CI segstore-warm job asserts the same through the real
// CLI).
func TestSegmentWarmLargeGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-cell grid is seconds of engine time; skipped under -short")
	}
	a := fastAxes()
	// fastAxes is 2×2×2×2 = 16 cells; widen to 8 conc × 4 P × 4 RTTs ×
	// 2 buffers × 2 CCs × 2 crosses = 2048.
	a.Concurrencies = []int{1, 2, 3, 4, 5, 6, 7, 8}
	a.ParallelFlows = []int{1, 2, 4, 8}
	a.TransferSizes = append(a.TransferSizes, 0.25*units.GB)
	a.RTTs = append(a.RTTs, 16*time.Millisecond, 64*time.Millisecond)
	a.CCs = []tcpsim.CongestionControl{tcpsim.Reno, tcpsim.Cubic}
	a.CrossFractions = []float64{0, 0.3}
	if a.Size() < 2048 {
		t.Fatalf("grid has %d cells, want >= 2048", a.Size())
	}

	cold, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seedCellRecords(t, dir, a)
	if _, err := CompactDiskCache(dir); err != nil {
		t.Fatal(err)
	}

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	base := ReadCacheStats()
	g, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(base)
	if d.EngineRuns != 0 || d.CellsFromSegment != int64(a.Size()) {
		t.Fatalf("large warm open stats = %v, want all %d cells from segment, zero engine runs", d, a.Size())
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, cold.Rows) {
		t.Fatal("2048-cell segment warm open not byte-identical to cold serial RunGrid")
	}
}

// legacyJSONSidecar is the v2-era sidecar schema, frozen here so tests
// can fabricate the exact bytes old processes left on disk (the store
// itself no longer knows the JSON format: any sidecar that fails the
// binary magic degrades to a full scan).
type legacyJSONSidecar struct {
	Version string              `json:"version"`
	Size    int64               `json:"segment_size"`
	Entries map[string][2]int64 `json:"entries"`
}

// seedV2SegmentRecords fabricates a pre-v3 store byte-for-byte: every
// cell framed as a v2 JSON-envelope segment record plus a v2-era JSON
// sidecar — exactly what a v2-era process left on disk. Returns the
// cold reference rows.
func seedV2SegmentRecords(t *testing.T, dir string, a Axes) []GridRow {
	t.Helper()
	cold, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	na := a.normalized()
	var seg []byte
	idx := legacyJSONSidecar{Version: "repro-cells/v2", Entries: map[string][2]int64{}}
	for i, c := range na.Cells() {
		fp := cellFingerprint(na.Experiment(c))
		rec := encodeLegacySegRecord(t, fp, cold.Rows[i].SweepRow)
		key := fingerprintSegKey(fp)
		idx.Entries[hex.EncodeToString(key[:])] = [2]int64{int64(len(seg)), int64(len(rec))}
		seg = append(seg, rec...)
	}
	idx.Size = int64(len(seg))
	if err := os.WriteFile(segPathOf(dir), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(idxPathOf(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return cold.Rows
}

// TestV2SegmentStale pins the v4 half of the version-bump checklist:
// the v2 JSON segment fallback was DROPPED, so a directory a v2-era
// process left behind (all-v2 segment + v2 JSON sidecar) no longer
// serves anything. The sidecar fails the binary magic → full scan; the
// scan stops at the first v2 frame (dead space, never decoded) → every
// cell recomputes, bit-identical to the cold reference. The recomputed
// records then append past the dead frames, and compaction reclaims
// the space: the repaired store is fully warm, all-binary, and still
// bit-identical.
func TestV2SegmentStale(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()
	rows := seedV2SegmentRecords(t, dir, a)
	v2Size := fileSize(t, segPathOf(dir))

	ResetSegmentStores()
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	base := ReadCacheStats()
	g, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(base)
	if d.EngineRuns != int64(a.Size()) || d.CellsFromSegment != 0 {
		t.Fatalf("v2 staleness stats = %v, want all %d cells recomputed, none served", d, a.Size())
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, rows) {
		t.Fatal("recomputed rows differ from the cold reference")
	}
	// The recomputed records appended past the dead v2 frames — the
	// stale bytes were never truncated, only superseded.
	if got := fileSize(t, segPathOf(dir)); got <= v2Size {
		t.Fatalf("segment size %d after recompute, want appends past the %d-byte v2 region", got, v2Size)
	}

	// Compaction keeps exactly the live binary records and reclaims the
	// v2 region as dead space.
	st, err := CompactDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != a.Size() {
		t.Fatalf("compaction kept %d records, want %d", st.Records, a.Size())
	}
	seg, err := os.ReadFile(segPathOf(dir))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for off := 0; off < len(seg); {
		if string(seg[off:off+4]) != segMagic {
			t.Fatalf("record %d: bad frame magic at offset %d", count, off)
		}
		n := int(binary.LittleEndian.Uint32(seg[off+4 : off+8]))
		payload := seg[off+segHeaderSize : off+segHeaderSize+n]
		if !isBinPayload(payload) {
			t.Fatalf("record %d still carries a non-binary payload after compaction", count)
		}
		off += segHeaderSize + n
		count++
	}
	if count != a.Size() {
		t.Fatalf("compacted segment frames %d records, want %d", count, a.Size())
	}

	ResetSegmentStores()
	warm2 := NewGridCache()
	warm2.SetDiskDir(dir)
	base = ReadCacheStats()
	g2, err := warm2.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	d = ReadCacheStats().Since(base)
	if d.EngineRuns != 0 || d.CellsFromSegment != int64(a.Size()) {
		t.Fatalf("post-repair stats = %v, want all %d cells from segment", d, a.Size())
	}
	if gridRowsJSON(t, g2.Rows) != gridRowsJSON(t, rows) {
		t.Fatal("rows differ after compaction of the repaired store")
	}
}

// sidecarCorruptionCases damages ONLY the sidecar — the segment stays
// intact, so every case must degrade to a full tail scan: zero engine
// runs, zero wrong rows. Each mutator receives the valid sidecar bytes
// and returns the defective replacement.
var sidecarCorruptionCases = map[string]func(t *testing.T, data []byte) []byte{
	// A sidecar torn inside its fixed header (crash mid-write without
	// the atomic rename, or a short copy).
	"truncated header": func(t *testing.T, data []byte) []byte {
		return data[:sidecarHeaderSize-5]
	},
	// One flipped bit in the header CRC word: structurally complete,
	// cryptographically wrong.
	"flipped header crc bit": func(t *testing.T, data []byte) []byte {
		out := append([]byte{}, data...)
		out[sidecarHeaderSize-1] ^= 0x08
		return out
	},
	// One flipped bit inside an entry body: the entries CRC catches it.
	"flipped entry bit": func(t *testing.T, data []byte) []byte {
		out := append([]byte{}, data...)
		out[sidecarHeaderSize+7] ^= 0x80
		return out
	},
	// An entry count claiming more entries than the file holds, header
	// CRC dutifully recomputed — the exact-length check must reject it
	// before any entry parse walks off the buffer.
	"entry count overruns file": func(t *testing.T, data []byte) []byte {
		out := append([]byte{}, data...)
		n := binary.LittleEndian.Uint32(out[16:20])
		binary.LittleEndian.PutUint32(out[16:20], n+100)
		binary.LittleEndian.PutUint32(out[24:28], crc32.ChecksumIEEE(out[:24]))
		return out
	},
	// A cover point past every valid frame boundary (stale sidecar from
	// a since-rewritten segment), CRCs valid.
	"stale cover point": func(t *testing.T, data []byte) []byte {
		cover, entries, ok := decodeSidecar(data)
		if !ok {
			t.Fatal("seed sidecar does not decode")
		}
		m := make(map[segKey]segEntry, len(entries))
		for _, ent := range entries {
			m[ent.key] = ent.e
		}
		return encodeSidecar(cover-10, m)
	},
	// The v2-era JSON sidecar an old process left behind: fails the
	// binary magic, never parsed.
	"legacy JSON sidecar": func(t *testing.T, data []byte) []byte {
		cover, entries, ok := decodeSidecar(data)
		if !ok {
			t.Fatal("seed sidecar does not decode")
		}
		idx := legacyJSONSidecar{Version: "repro-cells/v2", Size: cover, Entries: map[string][2]int64{}}
		for _, ent := range entries {
			idx.Entries[hex.EncodeToString(ent.key[:])] = [2]int64{ent.e.off, ent.e.length}
		}
		out, err := json.Marshal(idx)
		if err != nil {
			t.Fatal(err)
		}
		return out
	},
	// Zero-length sidecar (open crashed before the first byte).
	"empty file": func(t *testing.T, data []byte) []byte {
		return nil
	},
}

// TestSidecarCorruptionTable: every sidecar defect degrades to the full
// tail scan — zero engine runs (the segment is the data), rows
// byte-identical to the cold reference — and the scan leaves a repaired
// binary sidecar behind. Runs the table with one-cell requests for
// every cell (per-cell) and with the whole grid in one request (dense).
func TestSidecarCorruptionTable(t *testing.T) {
	a := fastAxes()
	cold, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	want := gridRowsJSON(t, cold.Rows)

	for mode, serve := range map[string]requestShape{"per-cell": cellByCell, "dense": wholeGrid} {
		t.Run(mode, func(t *testing.T) {
			for name, corrupt := range sidecarCorruptionCases {
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					seedCellRecords(t, dir, a)
					ResetSegmentStores()
					data, err := os.ReadFile(idxPathOf(dir))
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(idxPathOf(dir), corrupt(t, data), 0o644); err != nil {
						t.Fatal(err)
					}

					c := NewGridCache()
					c.SetDiskDir(dir)
					base := ReadCacheStats()
					rows := serve(t, c, a)
					d := ReadCacheStats().Since(base)
					if d.EngineRuns != 0 {
						t.Errorf("sidecar defect cost %d engine runs, want 0 (full scan recovers the segment)", d.EngineRuns)
					}
					if d.CellsFromSegment != int64(a.Size()) {
						t.Errorf("served %d cells from segment, want %d", d.CellsFromSegment, a.Size())
					}
					if gridRowsJSON(t, rows) != want {
						t.Error("rows after sidecar defect differ from cold reference")
					}

					// The scan repairs the sidecar: the file decodes again
					// and covers the whole segment.
					CloseDiskCache(dir)
					cover, entries := readSidecarFile(t, dir)
					if len(entries) != a.Size() {
						t.Errorf("repaired sidecar holds %d entries, want %d", len(entries), a.Size())
					}
					if fi, err := os.Stat(segPathOf(dir)); err != nil || cover != fi.Size() {
						t.Errorf("repaired sidecar covers %d, segment is %v (err %v)", cover, fi, err)
					}
				})
			}
		})
	}
}

// TestFetchPoolDeterminism: the planner's warm-open result — rows,
// stats, everything — is byte-identical for ANY fetch pool size,
// including odd sizes that split the grid unevenly.
func TestFetchPoolDeterminism(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()
	rows := seedCellRecords(t, dir, a)
	want := gridRowsJSON(t, rows)

	origPool := fetchPoolSize
	t.Cleanup(func() { fetchPoolSize = origPool })

	for _, n := range []int{1, 2, 3, 5, 7, 16, 31} {
		fetchPoolSize = func() int { return n }
		ResetSegmentStores()
		warm := NewGridCache()
		warm.SetDiskDir(dir)
		base := ReadCacheStats()
		g, err := warm.Get(a, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", n, err)
		}
		d := ReadCacheStats().Since(base)
		if d.EngineRuns != 0 || d.CellsFromSegment != int64(a.Size()) {
			t.Errorf("workers=%d: stats = %v, want all %d cells from segment", n, d, a.Size())
		}
		if gridRowsJSON(t, g.Rows) != want {
			t.Errorf("workers=%d: rows not byte-identical", n)
		}
	}
}

// TestWarmOpenRacesCompaction: a warm open racing an in-process
// CompactDiskCache on the same resident store is served byte-identical
// to the cold reference. A stream whose read lands on the compacted-away
// handle misses and recomputes; its generation-guarded drop must not
// evict the entry compaction relocated — after the race the index still
// holds every cell, and the next warm open runs zero engines. Run it
// under -race as well: the stream reads outside the store lock.
func TestWarmOpenRacesCompaction(t *testing.T) {
	a := fastAxes()
	cold, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	want := gridRowsJSON(t, cold.Rows)
	dir := t.TempDir()
	seedCellRecords(t, dir, a)
	t.Cleanup(ResetSegmentStores)

	for round := 0; round < 20; round++ {
		var rows []GridRow
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c := NewGridCache()
			c.SetDiskDir(dir)
			g, err := c.Get(a, 0)
			if err != nil {
				t.Error(err)
				return
			}
			rows = g.Rows
		}()
		go func() {
			defer wg.Done()
			if _, err := CompactDiskCache(dir); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		if gridRowsJSON(t, rows) != want {
			t.Fatalf("round %d: rows of a warm open racing compaction differ from the cold reference", round)
		}
		if n := segmentRecordCount(dir); n != a.Size() {
			t.Fatalf("round %d: index holds %d entries after the race, want %d", round, n, a.Size())
		}
		next := NewGridCache()
		next.SetDiskDir(dir)
		before := EngineRunCount()
		if _, err := next.Get(a, 0); err != nil {
			t.Fatal(err)
		}
		if runs := EngineRunCount() - before; runs != 0 {
			t.Fatalf("round %d: warm open after the race ran %d experiments, want 0", round, runs)
		}
	}

	// The interleaving the race above cannot force: a stream looked an
	// entry up, a compaction relocated it (to the very same coordinates
	// — the store is already compacted), and the stream's read failed
	// against the closed handle. Its drop must leave the entry alone.
	s := segmentStore(dir)
	key, observed := segEntryOf(t, dir, a, 5)
	s.mu.Lock()
	gen := s.gen
	s.mu.Unlock()
	if _, err := CompactDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	if _, relocated := segEntryOf(t, dir, a, 5); relocated != observed {
		t.Fatalf("re-compaction moved the entry %+v -> %+v; the check below needs equal coordinates", observed, relocated)
	}
	s.drop(key, observed, gen)
	if n := segmentRecordCount(dir); n != a.Size() {
		t.Fatalf("a stale drop evicted the relocated entry: index holds %d entries, want %d", n, a.Size())
	}
}

// TestCloseDiskCacheReleasesStore: CloseDiskCache flushes a dirty
// sidecar, evicts the directory's resident store from the process-wide
// registry, and a later access to the same directory reloads cleanly
// from disk.
func TestCloseDiskCacheReleasesStore(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes()
	rows := seedCellRecords(t, dir, a)

	// Dirty the resident index without flushing: drop the sidecar, then
	// force the full scan to rebuild the in-memory index.
	ResetSegmentStores()
	if err := os.Remove(idxPathOf(dir)); err != nil {
		t.Fatal(err)
	}
	na := a.normalized()
	cell := na.Cells()[0]
	if _, ok := loadOne(segmentStore(dir), cellFingerprint(na.Experiment(cell)), cell); !ok {
		t.Fatal("seeded cell not loadable")
	}

	segRegistryMu.Lock()
	_, resident := segRegistry[dir]
	segRegistryMu.Unlock()
	if !resident {
		t.Fatal("store not resident after load")
	}

	CloseDiskCache(dir)

	segRegistryMu.Lock()
	_, resident = segRegistry[dir]
	segRegistryMu.Unlock()
	if resident {
		t.Error("store still resident after CloseDiskCache")
	}
	// The dirty index was flushed on the way out.
	cover, entries := readSidecarFile(t, dir)
	if len(entries) != a.Size() {
		t.Errorf("flushed sidecar holds %d entries, want %d", len(entries), a.Size())
	}
	if fi, err := os.Stat(segPathOf(dir)); err != nil || cover != fi.Size() {
		t.Errorf("flushed sidecar covers %d, segment is %v (err %v)", cover, fi, err)
	}

	// A later access reloads from disk as if the process had restarted.
	warm := NewGridCache()
	warm.SetDiskDir(dir)
	base := ReadCacheStats()
	g, err := warm.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(base)
	if d.EngineRuns != 0 || d.CellsFromSegment != int64(a.Size()) {
		t.Fatalf("post-close warm open stats = %v, want all %d cells from segment", d, a.Size())
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, rows) {
		t.Fatal("rows differ after close/reopen")
	}

	CloseDiskCache("") // the empty dir is a documented no-op
}

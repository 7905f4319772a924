package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// store persists one record right away through a batch of one, the
// way a grid run's last batch lands.
func (s *cellStore) store(fp string, row SweepRow) {
	b := &recordBatch{store: s}
	b.add(fp, row)
	b.flush()
}

// seedCellRecords runs the grid cold through a disk-backed cache so its
// cell records exist under dir (in the segment file since v2),
// returning the reference rows.
func seedCellRecords(t *testing.T, dir string, a Axes) []GridRow {
	t.Helper()
	c := NewGridCache()
	c.SetDiskDir(dir)
	g, err := c.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.Rows
}

// plantRecord replaces cell i's record with payload: the payload is
// framed as a CRC-valid segment record, appended to dir's segment, and
// cell i's sidecar entry is pointed at it. The frame is sound, so only
// the read path's decode or acceptance check can reject the record.
func plantRecord(t *testing.T, dir string, a Axes, i int, payload []byte) {
	t.Helper()
	key, _ := segEntryOf(t, dir, a, i)
	ResetSegmentStores()
	_, entries := readSidecarFile(t, dir)
	off := fileSize(t, segPathOf(dir))
	rec := frameSegPayload(payload)
	f, err := os.OpenFile(segPathOf(dir), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entries[key] = segEntry{off: off, length: int64(len(rec))}
	writeSidecarFile(t, dir, off+int64(len(rec)), entries)
}

// binPayload returns the v3 binary payload of one row under fp.
func binPayload(t *testing.T, fp string, row SweepRow) []byte {
	t.Helper()
	rec, err := encodeSegRecord(fp, row)
	if err != nil {
		t.Fatal(err)
	}
	return rec[segHeaderSize:]
}

// cellCorruptionCases builds, in every way the read path must tolerate,
// a defective payload for one cell's record from that cell's
// fingerprint and row and a DIFFERENT cell's (for cross-cell
// forgeries). Each is planted behind a sound frame (plantRecord), so
// these are the defects past the CRC: the ones decode and acceptRow
// catch. Frame-level damage has its own table (segCorruptionCases).
var cellCorruptionCases = map[string]func(t *testing.T, fp string, row SweepRow, otherFP string, other SweepRow) []byte{
	"garbage": func(t *testing.T, _ string, _ SweepRow, _ string, _ SweepRow) []byte {
		return []byte("{not json")
	},
	"truncated record": func(t *testing.T, fp string, row SweepRow, _ string, _ SweepRow) []byte {
		p := binPayload(t, fp, row)
		return p[:len(p)/2]
	},
	"empty": func(t *testing.T, _ string, _ SweepRow, _ string, _ SweepRow) []byte {
		return nil
	},
	// The right row in a retired record generation: the v2 JSON
	// envelope a pre-v3 process framed.
	"version mismatch": func(t *testing.T, fp string, row SweepRow, _ string, _ SweepRow) []byte {
		return encodeLegacySegRecord(t, fp, row)[segHeaderSize:]
	},
	// A fingerprint-prefix collision: some other cell's record (whose
	// full fingerprint differs) lands under this cell's key. The
	// embedded full fingerprint is the guard — the read must miss, not
	// serve the wrong cell.
	"fingerprint prefix collision": func(t *testing.T, _ string, _ SweepRow, otherFP string, other SweepRow) []byte {
		return binPayload(t, otherFP, other)
	},
	// One slack byte past the exact-length layout.
	"payload wrong shape": func(t *testing.T, fp string, row SweepRow, _ string, _ SweepRow) []byte {
		return append(binPayload(t, fp, row), 0)
	},
	// A well-formed record with the right fingerprint whose row belongs
	// to different Table 2 coordinates — it decodes, and the acceptance
	// check must reject it.
	"payload wrong cell": func(t *testing.T, fp string, row SweepRow, _ string, _ SweepRow) []byte {
		row.Concurrency += 17
		return binPayload(t, fp, row)
	},
}

// TestCellRecordCorruptionRecovery: every class of defective cell record
// is a miss for THAT CELL ONLY — the grid recomputes exactly the damaged
// cell, assembles rows byte-identical to the cold reference, and leaves
// a repaired record behind in the segment.
func TestCellRecordCorruptionRecovery(t *testing.T) {
	a := fastAxes()
	cold, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}
	want := gridRowsJSON(t, cold.Rows)
	na := a.normalized()
	fpOf := func(i int) string { return cellFingerprint(na.Experiment(cold.Rows[i].Cell)) }

	for name, payload := range cellCorruptionCases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seedCellRecords(t, dir, a)
			plantRecord(t, dir, a, 3, payload(t, fpOf(3), cold.Rows[3].SweepRow, fpOf(12), cold.Rows[12].SweepRow))
			ResetSegmentStores()

			c := NewGridCache()
			c.SetDiskDir(dir)
			before := EngineRunCount()
			g, err := c.Get(a, 0)
			if err != nil {
				t.Fatal(err)
			}
			if runs := EngineRunCount() - before; runs != 1 {
				t.Errorf("recovery ran %d experiments, want 1 (only the damaged cell)", runs)
			}
			if gridRowsJSON(t, g.Rows) != want {
				t.Error("recovered rows differ from cold reference")
			}
			// The recompute must leave a good record behind.
			ResetSegmentStores()
			warm := NewGridCache()
			warm.SetDiskDir(dir)
			before = EngineRunCount()
			if _, err := warm.Get(a, 0); err != nil {
				t.Fatal(err)
			}
			if runs := EngineRunCount() - before; runs != 0 {
				t.Errorf("record not repaired: follow-up run recomputed %d cells", runs)
			}
		})
	}
}

// TestPartialGridRecovery: with half the grid's records corrupted, only
// the damaged half recomputes, and the mixed loaded/recomputed assembly
// stays byte-identical to the cold reference (the TestGridDeterminism
// contract extended to partial disk state).
func TestPartialGridRecovery(t *testing.T) {
	a := fastAxes()
	cold, err := RunGrid(a)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	seedCellRecords(t, dir, a)
	var damaged []segEntry
	for i := 1; i < a.Size(); i += 2 {
		_, e := segEntryOf(t, dir, a, i)
		damaged = append(damaged, e)
	}
	ResetSegmentStores()
	f, err := os.OpenFile(segPathOf(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range damaged {
		// Flip a payload byte: the CRC no longer matches.
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, e.off+segHeaderSize+3); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xFF
		if _, err := f.WriteAt(b, e.off+segHeaderSize+3); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	c := NewGridCache()
	c.SetDiskDir(dir)
	before := EngineRunCount()
	g, err := c.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs := EngineRunCount() - before; runs != int64(len(damaged)) {
		t.Errorf("partial recovery ran %d experiments, want %d (the corrupt half)", runs, len(damaged))
	}
	if gridRowsJSON(t, g.Rows) != gridRowsJSON(t, cold.Rows) {
		t.Error("partially recovered grid not byte-identical to cold reference")
	}
}

// TestUnwritableCacheDirDegrades: a cache directory that cannot be
// created degrades the store to persistence-off after the first failed
// write — the run still succeeds, later cells and later grids skip the
// store instead of retrying the failing write, and SetDiskDir to a good
// directory re-enables persistence.
func TestUnwritableCacheDirDegrades(t *testing.T) {
	parent := t.TempDir()
	blocker := filepath.Join(parent, "blocker")
	if err := os.WriteFile(blocker, []byte("a file where a directory is needed"), 0o644); err != nil {
		t.Fatal(err)
	}
	unwritable := filepath.Join(blocker, "cache") // MkdirAll must fail

	c := NewGridCache()
	c.SetDiskDir(unwritable)
	if c.cells.activeDir() != unwritable {
		t.Fatalf("DiskDir = %q before any write", c.cells.activeDir())
	}
	if _, err := c.Get(fastAxes(), 0); err != nil {
		t.Fatalf("unwritable cache dir failed the run: %v", err)
	}
	if c.cells.activeDir() != "" {
		t.Error("store did not degrade to persistence-off after write failure")
	}

	// A second grid on the degraded store must not attempt writes at all:
	// removing the blocker would now let writes succeed, so the absence
	// of records proves the store stayed off.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	sub := subAxes()
	if _, err := c.Get(sub, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(unwritable); !os.IsNotExist(err) {
		t.Errorf("degraded store still wrote to disk (stat err = %v)", err)
	}

	// Re-pointing the store clears the degrade.
	good := t.TempDir()
	c.SetDiskDir(good)
	c.Purge()
	if _, err := c.Get(sub, 0); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Error("SetDiskDir did not re-enable persistence")
	}
}

// TestDegradeWarnsOnce: however many writes fail, the process emits a
// single stderr warning — not one per cell or per grid.
func TestDegradeWarnsOnce(t *testing.T) {
	var buf bytes.Buffer
	persistWarnOnce = sync.Once{}
	persistWarnW = &buf
	defer func() { persistWarnW = os.Stderr }()

	parent := t.TempDir()
	blocker := filepath.Join(parent, "blocker")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // two caches degrade independently
		c := NewGridCache()
		c.SetDiskDir(filepath.Join(blocker, "cache"))
		if _, err := c.Get(fastAxes(), 0); err != nil {
			t.Fatal(err)
		}
	}
	warnings := strings.Count(buf.String(), "\n")
	if warnings != 1 {
		t.Errorf("%d warnings emitted, want exactly 1:\n%s", warnings, buf.String())
	}
	if !strings.Contains(buf.String(), "continuing without persistence") {
		t.Errorf("warning text: %q", buf.String())
	}
}

// TestCacheStatsCounters: the process-wide counters attribute every
// requested cell to the memo, the segment file, or engine execution.
func TestCacheStatsCounters(t *testing.T) {
	dir := t.TempDir()
	a := fastAxes() // 16 cells
	n := int64(a.Size())

	c := NewGridCache()
	c.SetDiskDir(dir)
	base := ReadCacheStats()
	if _, err := c.Get(a, 0); err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(base)
	if d.CellsRequested != n || d.CellsFromMemo != 0 ||
		d.CellsFromSegment != 0 || d.EngineRuns != n {
		t.Errorf("cold run stats = %v, want cells=%d memo=0 disk=0 segment=0 engine-runs=%d", d, n, n)
	}

	base = ReadCacheStats()
	if _, err := c.Get(a, 0); err != nil {
		t.Fatal(err)
	}
	d = ReadCacheStats().Since(base)
	if d.CellsRequested != n || d.CellsFromMemo != n ||
		d.CellsFromSegment != 0 || d.EngineRuns != 0 {
		t.Errorf("memo-warm stats = %v, want cells=%d memo=%d disk=0 segment=0 engine-runs=0", d, n, n)
	}

	fresh := NewGridCache()
	fresh.SetDiskDir(dir)
	base = ReadCacheStats()
	if _, err := fresh.Get(a, 0); err != nil {
		t.Fatal(err)
	}
	d = ReadCacheStats().Since(base)
	if d.CellsRequested != n || d.CellsFromMemo != 0 ||
		d.CellsFromSegment != n || d.EngineRuns != 0 {
		t.Errorf("segment-warm stats = %v, want cells=%d memo=0 disk=0 segment=%d engine-runs=0", d, n, n)
	}
	if d.BytesRead <= 0 {
		t.Errorf("segment-warm BytesRead = %d, want > 0 (the streamed records)", d.BytesRead)
	}
	// The String rendering is pinned on a fixed value: IndexLoad and
	// BytesRead are measured quantities, so the live delta's rendering
	// is not reproducible byte-for-byte.
	fixed := CacheStats{CellsRequested: 16, CellsFromSegment: 16, IndexLoad: 1500 * time.Microsecond, BytesRead: 4096}
	want := "cells=16 memo=0 disk=0 segment=16 engine-runs=0 lock-waits=0 index-load=1.5ms bytes-read=4096"
	if got := fixed.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestCellFingerprintIsGridIndependent: the same physical cell carries
// the same fingerprint whether enumerated by a superset grid or a
// sub-grid — the invariant behind cross-grid reuse.
func TestCellFingerprintIsGridIndependent(t *testing.T) {
	super := fastAxes().normalized()
	sub := subAxes().normalized()

	fps := make(map[string]bool)
	for _, c := range super.Cells() {
		fps[cellFingerprint(super.Experiment(c))] = true
	}
	for _, c := range sub.Cells() {
		fp := cellFingerprint(sub.Experiment(c))
		if !fps[fp] {
			t.Errorf("sub-grid cell %+v fingerprint %q not produced by superset", c, fp)
		}
	}
}

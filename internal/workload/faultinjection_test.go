package workload

// Fault-injection tests: every failure mode the fsfault layer can
// inject — transient and persistent append errors, short writes,
// sidecar write/rename failures, mid-compaction failures — must leave
// the store readable, degrade at worst to single-cell recomputation,
// and repair on the next open or compaction. Each case asserts
// fsfault.Fired so a refactor that routes around a failpoint fails the
// test instead of silently un-testing the path.

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fsfault"
)

// resetFaultState clears fsfault and the degrade-warning state for one
// test, restoring both on cleanup.
func resetFaultState(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	persistWarnOnce = sync.Once{}
	persistWarnW = &buf
	t.Cleanup(func() {
		fsfault.Reset()
		persistWarnW = os.Stderr
	})
	return &buf
}

// coldRun executes the axes cold into dir and returns the rows.
func coldRun(t *testing.T, dir string, a Axes) []GridRow {
	t.Helper()
	c := NewGridCache()
	c.SetDiskDir(dir)
	g, err := c.Get(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.Rows
}

// warmRunStats re-opens the store as a fresh process would and runs the
// axes warm, returning the rows and the run's counter deltas.
func warmRunStats(t *testing.T, dir string, a Axes) ([]GridRow, CacheStats) {
	t.Helper()
	ResetSegmentStores()
	before := ReadCacheStats()
	rows := coldRun(t, dir, a)
	return rows, ReadCacheStats().Since(before)
}

// TestTransientAppendFaultRetries: a write error that clears on retry
// (flaky device) costs nothing visible — the retried append lands, the
// store does not degrade, and a fresh open serves every cell.
func TestTransientAppendFaultRetries(t *testing.T) {
	buf := resetFaultState(t)
	dir := t.TempDir()
	fsfault.Enable("segstore.append.write", fsfault.Fault{Err: fsfault.ErrInjectedEIO, Once: true})

	ref := coldRun(t, dir, subAxes())
	if n := fsfault.Fired("segstore.append.write"); n != 1 {
		t.Fatalf("append failpoint fired %d times, want 1", n)
	}
	if buf.Len() != 0 {
		t.Errorf("transient fault degraded the store: %q", buf.String())
	}
	fsfault.Reset()

	rows, d := warmRunStats(t, dir, subAxes())
	if d.EngineRuns != 0 {
		t.Errorf("warm run after transient fault executed %d experiments, want 0", d.EngineRuns)
	}
	if gridRowsJSON(t, rows) != gridRowsJSON(t, ref) {
		t.Error("warm rows differ from the faulted cold run")
	}
}

// TestPersistentAppendFaultDegrades: a write error that never clears —
// dead device, out of space — degrades the store after the bounded
// retries, with ONE warning, and the run still completes correctly.
func TestPersistentAppendFaultDegrades(t *testing.T) {
	for name, injected := range map[string]error{
		"eio":    fsfault.ErrInjectedEIO,
		"enospc": fsfault.ErrInjectedENOSPC,
	} {
		t.Run(name, func(t *testing.T) {
			buf := resetFaultState(t)
			dir := t.TempDir()
			fsfault.Enable("segstore.append.write", fsfault.Fault{Err: injected})

			before := EngineRunCount()
			rows := coldRun(t, dir, subAxes())
			if len(rows) == 0 {
				t.Fatal("faulted run produced no rows")
			}
			if runs := EngineRunCount() - before; runs != int64(len(subAxes().Cells())) {
				t.Errorf("faulted cold run executed %d experiments, want %d", runs, len(subAxes().Cells()))
			}
			if fsfault.Fired("segstore.append.write") == 0 {
				t.Fatal("append failpoint never fired")
			}
			if got := strings.Count(buf.String(), "continuing without persistence"); got != 1 {
				t.Errorf("degrade warned %d times, want exactly 1 (stderr: %q)", got, buf.String())
			}
			if !strings.Contains(buf.String(), injected.Error()) {
				t.Errorf("warning does not carry the injected error: %q", buf.String())
			}
		})
	}
}

// TestShortWriteTornRecordReclaimed: a short write tears a record at
// the segment tail. The retry re-appends it cleanly past the torn
// bytes, so a fresh open serves every cell; the torn bytes are dead
// space that compaction measurably reclaims. Two tear points: inside
// the v3 payload's fingerprint prelude (20 bytes: past the frame
// header, mid-fingerprint) and inside the binary row's fixed fields
// (past the fingerprint, mid-duration) — the scan must reject both
// torn shapes identically.
func TestShortWriteTornRecordReclaimed(t *testing.T) {
	na := fastAxes().normalized()
	fpLen := len(cellFingerprint(na.Experiment(na.Cells()[0])))
	for name, torn := range map[string]int{
		"mid-fingerprint":     20,
		"mid-row-fixed-field": segHeaderSize + binPreludeSize + fpLen + 30,
	} {
		t.Run(name, func(t *testing.T) { testShortWriteTorn(t, torn) })
	}
}

func testShortWriteTorn(t *testing.T, torn int) {
	buf := resetFaultState(t)
	dir := t.TempDir()
	fsfault.Enable("segstore.append.write", fsfault.Fault{
		AllowBytes: int64(torn), Err: io.ErrShortWrite, Once: true,
	})

	ref := coldRun(t, dir, fastAxes())
	if n := fsfault.Fired("segstore.append.write"); n != 1 {
		t.Fatalf("append failpoint fired %d times, want 1", n)
	}
	if buf.Len() != 0 {
		t.Errorf("transient short write degraded the store: %q", buf.String())
	}
	fsfault.Reset()

	rows, d := warmRunStats(t, dir, fastAxes())
	if d.EngineRuns != 0 {
		t.Errorf("warm run over torn segment executed %d experiments, want 0", d.EngineRuns)
	}
	if gridRowsJSON(t, rows) != gridRowsJSON(t, ref) {
		t.Error("warm rows differ after torn append")
	}

	st, err := CompactDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReclaimedBytes != int64(torn) {
		t.Errorf("compaction reclaimed %d bytes, want the %d torn bytes", st.ReclaimedBytes, torn)
	}
	if st.Records != len(fastAxes().Cells()) {
		t.Errorf("compacted segment holds %d records, want %d", st.Records, len(fastAxes().Cells()))
	}
	rows, d = warmRunStats(t, dir, fastAxes())
	if d.EngineRuns != 0 || gridRowsJSON(t, rows) != gridRowsJSON(t, ref) {
		t.Error("store not fully warm after compacting the torn segment")
	}
}

// TestSidecarFaultsAreSilent: the sidecar is an accelerator — a failed
// sidecar write or rename must not warn, must not degrade, and must
// not lose a single record: the next open recovers everything by tail
// scan.
func TestSidecarFaultsAreSilent(t *testing.T) {
	for name, fault := range map[string]struct {
		point string
		f     fsfault.Fault
	}{
		"write-eio":   {"segstore.sidecar.write", fsfault.Fault{Err: fsfault.ErrInjectedEIO}},
		"rename-fail": {"segstore.sidecar.rename", fsfault.Fault{Err: fsfault.ErrInjectedFailure}},
	} {
		t.Run(name, func(t *testing.T) {
			buf := resetFaultState(t)
			dir := t.TempDir()
			fsfault.Enable(fault.point, fault.f)

			ref := coldRun(t, dir, subAxes())
			if fsfault.Fired(fault.point) == 0 {
				t.Fatalf("%s never fired", fault.point)
			}
			if buf.Len() != 0 {
				t.Errorf("sidecar fault warned: %q", buf.String())
			}
			if _, err := os.Stat(idxPathOf(dir)); !os.IsNotExist(err) {
				t.Errorf("sidecar exists despite injected %s fault", name)
			}
			// The failed write/rename must not leave temp litter.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, ent := range entries {
				if isSegmentTempName(ent.Name()) {
					t.Errorf("temp litter %q left after sidecar fault", ent.Name())
				}
			}
			fsfault.Reset()

			rows, d := warmRunStats(t, dir, subAxes())
			if d.EngineRuns != 0 {
				t.Errorf("tail-scan recovery executed %d experiments, want 0", d.EngineRuns)
			}
			if gridRowsJSON(t, rows) != gridRowsJSON(t, ref) {
				t.Error("recovered rows differ from the original run")
			}
			// The warm run's flush retries the sidecar; with the fault
			// cleared it must land.
			if _, err := os.Stat(idxPathOf(dir)); err != nil {
				t.Errorf("sidecar not restored by the next flush: %v", err)
			}
		})
	}
}

// TestCompactWriteFaultLeavesStoreIntact: a failed compaction write
// surfaces as an error and changes nothing — the old segment, sidecar
// and in-memory index keep serving every cell.
func TestCompactWriteFaultLeavesStoreIntact(t *testing.T) {
	resetFaultState(t)
	dir := t.TempDir()
	ref := seedCellRecords(t, dir, subAxes())

	fsfault.Enable("segstore.compact.write", fsfault.Fault{Err: fsfault.ErrInjectedENOSPC})
	if _, err := CompactDiskCache(dir); !errors.Is(err, fsfault.ErrInjectedENOSPC) {
		t.Fatalf("compact error = %v, want the injected ENOSPC", err)
	}
	if fsfault.Fired("segstore.compact.write") == 0 {
		t.Fatal("compact write failpoint never fired")
	}
	fsfault.Reset()

	if _, err := os.Stat(idxPathOf(dir)); err != nil {
		t.Errorf("sidecar lost to a failed compaction write: %v", err)
	}
	rows, d := warmRunStats(t, dir, subAxes())
	if d.EngineRuns != 0 {
		t.Errorf("store lost records to a failed compaction: %d engine runs", d.EngineRuns)
	}
	if gridRowsJSON(t, rows) != gridRowsJSON(t, ref) {
		t.Error("rows differ after failed compaction")
	}
}

// TestCompactRenameFaultFallsBackToScan: a compaction that dies at the
// final rename has already removed the sidecar (deliberately — see
// compact). The store must still serve every cell via full scan, and
// the next in-process flush restores the sidecar.
func TestCompactRenameFaultFallsBackToScan(t *testing.T) {
	resetFaultState(t)
	dir := t.TempDir()
	ref := seedCellRecords(t, dir, subAxes())

	fsfault.Enable("segstore.compact.rename", fsfault.Fault{Err: fsfault.ErrInjectedFailure})
	if _, err := CompactDiskCache(dir); !errors.Is(err, fsfault.ErrInjectedFailure) {
		t.Fatalf("compact error = %v, want the injected rename failure", err)
	}
	fsfault.Reset()

	if _, err := os.Stat(idxPathOf(dir)); !os.IsNotExist(err) {
		t.Error("sidecar still present: compact must remove it before the swap")
	}
	if _, err := os.Stat(segPathOf(dir)); err != nil {
		t.Fatalf("segment lost to a failed compaction swap: %v", err)
	}

	rows, d := warmRunStats(t, dir, subAxes())
	if d.EngineRuns != 0 {
		t.Errorf("sidecar-less store executed %d experiments, want 0 (full scan)", d.EngineRuns)
	}
	if gridRowsJSON(t, rows) != gridRowsJSON(t, ref) {
		t.Error("rows differ after failed compaction swap")
	}
	if _, err := os.Stat(idxPathOf(dir)); err != nil {
		t.Errorf("sidecar not restored by the post-recovery flush: %v", err)
	}

	// A retried compaction (fault cleared) completes and is idempotent.
	if _, err := CompactDiskCache(dir); err != nil {
		t.Fatalf("retried compaction: %v", err)
	}
	st, err := CompactDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReclaimedBytes != 0 {
		t.Errorf("second compaction reclaimed %d bytes, want 0", st.ReclaimedBytes)
	}
}

// TestLockAcquireFault: an injected lock-acquisition failure follows
// the same degrade path as a real one — retries, then persistence off
// with one warning.
func TestLockAcquireFault(t *testing.T) {
	buf := resetFaultState(t)
	dir := t.TempDir()
	fsfault.Enable("fslock.acquire", fsfault.Fault{Err: fsfault.ErrInjectedFailure})

	oldDelay := storeRetryDelay
	storeRetryDelay = time.Millisecond
	defer func() { storeRetryDelay = oldDelay }()

	var s cellStore
	s.setDir(dir)
	s.store("fp-lockfault", SweepRow{Concurrency: 1, ParallelFlows: 1, Worst: time.Second, TransferTimes: []float64{1}})
	if s.activeDir() != "" {
		t.Error("store did not degrade on persistent lock-acquire failure")
	}
	if got := strings.Count(buf.String(), "continuing without persistence"); got != 1 {
		t.Errorf("degrade warned %d times, want 1", got)
	}
	if fsfault.Fired("fslock.acquire") == 0 {
		t.Error("fslock.acquire never fired")
	}
}

// TestShortWriteTornBatch: a short write tears the third record of a
// group-committed batch. The two whole records before it stay indexed
// and are not re-appended; the retry appends from the torn record on.
// So the warm run simulates nothing, its rows are byte-identical to the
// cold run's, compaction reclaims exactly the torn bytes, and the
// compacted segment holds one record per cell.
func TestShortWriteTornBatch(t *testing.T) {
	buf := resetFaultState(t)
	dir := t.TempDir()
	a := fastAxes()

	// One worker executes the missing cells in grid order, so the
	// batch's record order — and with it the tear point — is known.
	na := a.normalized()
	ref, err := RunGridParallel(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	total := 0
	for i, c := range na.Cells() {
		rec, err := encodeSegRecord(cellFingerprint(na.Experiment(c)), ref.Rows[i].SweepRow)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(rec))
		total += len(rec)
	}
	if len(sizes) < 3 || len(sizes) > batchMaxRecords {
		t.Fatalf("grid of %d cells does not fit one batch with a third record", len(sizes))
	}
	torn := sizes[2] / 2
	fsfault.Enable("segstore.append.write", fsfault.Fault{
		AllowBytes: int64(sizes[0] + sizes[1] + torn), Err: io.ErrShortWrite, Once: true,
	})

	c := NewGridCache()
	c.SetDiskDir(dir)
	cold, st, err := c.GetStats(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := fsfault.Fired("segstore.append.write"); n != 1 {
		t.Fatalf("append failpoint fired %d times, want 1", n)
	}
	if buf.Len() != 0 {
		t.Errorf("transient short write degraded the store: %q", buf.String())
	}
	fsfault.Reset()
	if st.EngineRuns != int64(len(sizes)) {
		t.Fatalf("cold run executed %d cells, want %d", st.EngineRuns, len(sizes))
	}
	if gridRowsJSON(t, cold.Rows) != gridRowsJSON(t, ref.Rows) {
		t.Fatal("cold rows differ from RunGridParallel")
	}
	// Whole records before the tear were kept, not re-appended.
	if got, want := fileSize(t, segPathOf(dir)), int64(total+torn); got != want {
		t.Errorf("segment is %d bytes, want %d records' %d bytes plus the %d torn bytes", got, len(sizes), total, torn)
	}

	rows, d := warmRunStats(t, dir, a)
	if d.EngineRuns != 0 {
		t.Errorf("warm run over the torn batch executed %d experiments, want 0", d.EngineRuns)
	}
	if gridRowsJSON(t, rows) != gridRowsJSON(t, cold.Rows) {
		t.Error("warm rows differ after the torn batch")
	}

	cs, err := CompactDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cs.ReclaimedBytes != int64(torn) {
		t.Errorf("compaction reclaimed %d bytes, want the %d torn bytes", cs.ReclaimedBytes, torn)
	}
	if cs.Records != len(sizes) || cs.SegmentBytes != int64(total) {
		t.Errorf("compacted segment holds %d records in %d bytes, want %d in %d", cs.Records, cs.SegmentBytes, len(sizes), total)
	}
}

package workload

// Writer-lock tests: mutual exclusion, bounded acquisition, the
// lock-waits counter, degrade-on-timeout, and the inertness of a
// leftover lock file. flock(2) conflicts between two descriptors even
// inside one process, so exclusion is testable without re-exec (the
// multi-process story is torture_test.go's job).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// withLockTimeout shrinks the acquisition bound for one test.
func withLockTimeout(t *testing.T, d time.Duration) {
	t.Helper()
	old := lockTimeout
	lockTimeout = d
	t.Cleanup(func() { lockTimeout = old })
}

// TestDirLockExcludes: while one handle holds the directory lock, a
// second acquisition blocks and times out with errLockTimeout; after
// release it succeeds immediately.
func TestDirLockExcludes(t *testing.T) {
	dir := t.TempDir()
	l1, err := acquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l1.release()

	withLockTimeout(t, 50*time.Millisecond)
	if _, err := acquireDirLock(dir); !errors.Is(err, errLockTimeout) {
		t.Fatalf("contended acquisition: err = %v, want errLockTimeout", err)
	}
	if !strings.Contains(func() string {
		_, err := acquireDirLock(dir)
		return err.Error()
	}(), "pid=") {
		t.Error("timeout error does not report the recorded holder")
	}

	l1.release()
	l2, err := acquireDirLock(dir)
	if err != nil {
		t.Fatalf("post-release acquisition: %v", err)
	}
	l2.release()
}

// TestLockWaitsCounter: an uncontended acquisition leaves the counter
// alone; a contended one that eventually succeeds counts exactly once,
// no matter how many backoff rounds it spent waiting.
func TestLockWaitsCounter(t *testing.T) {
	dir := t.TempDir()

	before := ReadCacheStats()
	l, err := acquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d := ReadCacheStats().Since(before); d.LockWaits != 0 {
		t.Errorf("uncontended acquisition: lock-waits = %d, want 0", d.LockWaits)
	}

	before = ReadCacheStats()
	go func() {
		time.Sleep(30 * time.Millisecond)
		l.release()
	}()
	l2, err := acquireDirLock(dir)
	if err != nil {
		t.Fatalf("waiting acquisition: %v", err)
	}
	l2.release()
	if d := ReadCacheStats().Since(before); d.LockWaits != 1 {
		t.Errorf("contended acquisition: lock-waits = %d, want 1", d.LockWaits)
	}
}

// TestLockTimeoutDegradesStore: a store whose writer cannot get the
// directory lock inside the bound degrades to persistence-off with the
// usual single warning — and does NOT burn extra transient-error
// retries on top of the acquisition's own backoff (the run would
// otherwise stall for storeRetries × lockTimeout per cell).
func TestLockTimeoutDegradesStore(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	persistWarnOnce = sync.Once{}
	persistWarnW = &buf
	defer func() { persistWarnW = os.Stderr }()

	holder, err := acquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.release()

	withLockTimeout(t, 30*time.Millisecond)
	var s cellStore
	s.setDir(dir)
	start := time.Now()
	s.store("fp-degrade", SweepRow{Concurrency: 1, ParallelFlows: 1, Worst: time.Second, TransferTimes: []float64{1}})
	elapsed := time.Since(start)

	if s.activeDir() != "" {
		t.Error("store did not degrade after lock timeout")
	}
	if got := buf.String(); !strings.Contains(got, "continuing without persistence") {
		t.Errorf("degrade warning missing, stderr = %q", got)
	}
	// One timed-out acquisition, not 1+storeRetries of them.
	if elapsed > 3*lockTimeout {
		t.Errorf("degrade took %v; lock timeouts appear to be re-retried by the store layer", elapsed)
	}
}

// TestLeftoverLockFileInert: on Unix the kernel releases a crashed
// holder's flock, so a leftover cells.lock file must not block — or
// even delay — the next acquisition.
func TestLeftoverLockFileInert(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, lockFileName), []byte("pid=999999 time=2020-01-01T00:00:00Z\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := ReadCacheStats()
	l, err := acquireDirLock(dir)
	if err != nil {
		t.Fatalf("acquisition over leftover lock file: %v", err)
	}
	l.release()
	if d := ReadCacheStats().Since(before); d.LockWaits != 0 {
		t.Errorf("leftover lock file caused %d lock-waits, want 0", d.LockWaits)
	}
}

// TestWarmGridRunsLockFree: a fully warm grid run — every cell served
// from the segment — must never touch the writer lock: nothing is
// appended, the sidecar is clean, and the read path is lock-free by
// construction. This is what keeps warm benchmarks bit-identical with
// the lock in the tree.
func TestWarmGridRunsLockFree(t *testing.T) {
	dir := t.TempDir()
	seedCellRecords(t, dir, fastAxes())
	ResetSegmentStores()

	// A foreign process holds the lock the whole time: if the warm run
	// needed it, the run would degrade or stall.
	holder, err := acquireDirLock(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.release()
	withLockTimeout(t, 50*time.Millisecond)

	before := ReadCacheStats()
	c := NewGridCache()
	c.SetDiskDir(dir)
	if _, err := c.Get(fastAxes(), 0); err != nil {
		t.Fatal(err)
	}
	d := ReadCacheStats().Since(before)
	if d.EngineRuns != 0 {
		t.Fatalf("warm run executed %d experiments, want 0", d.EngineRuns)
	}
	if d.LockWaits != 0 {
		t.Errorf("warm run waited on the writer lock %d times, want 0", d.LockWaits)
	}
}

// TestStaleTempSweep: opening a store removes aged .seg-*/.idx-*/
// .cell-* temp litter left by crashed writers, but leaves fresh temps
// (a live writer's in-flight files) and foreign files alone.
func TestStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * staleTempMaxAge)
	files := map[string]bool{ // name -> should survive the sweep
		".seg-dead.tmp":  false,
		".idx-dead.tmp":  false,
		".cell-dead.tmp": false,
		".seg-live.tmp":  true, // fresh: a live writer may own it
		"notes.txt":      true, // foreign: never touched
	}
	for name := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		if name != ".seg-live.tmp" { // everything else is aged — including
			// notes.txt, since age alone must not doom a foreign file
			if err := os.Chtimes(p, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}

	// ensureLoaded (via a read) runs the sweep.
	loadOne(segmentStore(dir), "no-such-fp", GridCell{})

	for name, want := range files {
		_, err := os.Stat(filepath.Join(dir, name))
		switch {
		case want && err != nil:
			t.Errorf("%s removed by sweep, want kept", name)
		case !want && err == nil:
			t.Errorf("%s survived sweep, want removed", name)
		}
	}
}

// TestLockOwnerFixedWidth: every acquisition overwrites the owner
// record in place at one fixed width, never truncating. The lock file
// keeps a constant size across acquisitions, a longer stale record
// planted beforehand leaves no tail behind, and readLockOwner returns
// the trimmed "pid=… time=…" line.
func TestLockOwnerFixedWidth(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, lockFileName)
	stale := "pid=99999999999 time=2020-01-01T00:00:00Z stale-holder\n"
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	want := regexp.MustCompile(`^pid=` + strconv.Itoa(os.Getpid()) + ` time=\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ$`)
	for i := 0; i < 100; i++ {
		l, err := acquireDirLock(dir)
		if err != nil {
			t.Fatal(err)
		}
		l.release()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != lockOwnerWidth {
			t.Fatalf("acquisition %d: lock file is %d bytes, want the fixed %d", i, len(data), lockOwnerWidth)
		}
		if strings.Contains(string(data), "stale") || strings.Count(string(data), "\n") != 1 || data[len(data)-1] != '\n' {
			t.Fatalf("acquisition %d: lock file %q is not one padded owner line", i, data)
		}
		if got := readLockOwner(path); !want.MatchString(got) {
			t.Fatalf("acquisition %d: readLockOwner = %q, want %v", i, got, want)
		}
	}
}

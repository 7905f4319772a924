package workload

// The cache-directory writer lock: an advisory, cross-process exclusive
// lock (cells.lock) held around segment appends, sidecar flushes, and
// compaction, so two processes cold-running grids into one cache
// directory serialize their writes instead of stranding each other's
// records as dead space. Readers never take it — segment reads are
// CRC-guarded and already tolerate concurrent appends — so the warm
// read path is lock-free by construction.
//
// Acquisition is bounded: non-blocking attempts with exponential
// backoff up to lockTimeout. A writer that cannot get the lock inside
// the bound degrades to the existing persistence-off-with-one-warning
// path (the cache is an accelerator, never a requirement); the
// errLockTimeout sentinel tells the retry layer in cellStore.store not
// to burn further rounds on a lock that just spent the whole bound.
//
// Staleness: on Unix the lock is a kernel flock, released automatically
// when the holder exits or crashes — a leftover cells.lock FILE is
// inert and is deliberately never removed (unlinking a lock file races
// a concurrent acquirer holding the same inode). The portable fallback
// (fslock_stub.go) uses O_EXCL sentinel files with age-based stale-lock
// removal instead. The lock file's content (pid + timestamp, refreshed
// by every holder) is diagnostic only and is surfaced in timeout
// errors.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/fsfault"
)

const (
	// lockFileName is the writer-lock file under a cache directory.
	lockFileName = "cells.lock"

	// lockRetryBase / lockRetryMax bound the exponential backoff between
	// acquisition attempts.
	lockRetryBase = 2 * time.Millisecond
	lockRetryMax  = 200 * time.Millisecond
)

// lockTimeout bounds one acquisition end to end. A var so tests shrink
// it; real contention windows are per-append (sub-millisecond), so the
// default only trips when a holder wedges or a foreign process holds
// the lock across a long compaction.
var lockTimeout = 10 * time.Second

// errLockTimeout marks an acquisition that exhausted lockTimeout.
// cellStore.store skips its transient-error retries for it: the
// acquisition already retried with backoff for the whole bound.
var errLockTimeout = errors.New("cache writer lock timed out")

// fsLock is one held writer lock.
type fsLock struct {
	path string
	f    *os.File
}

// acquireDirLock takes the directory's exclusive writer lock, retrying
// with exponential backoff until lockTimeout. The directory must
// exist. Acquisitions that could not be satisfied on the first attempt
// count once toward the lock-waits cache counter.
func acquireDirLock(dir string) (*fsLock, error) {
	if err := fsfault.Hit("fslock.acquire"); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, lockFileName)
	deadline := time.Now().Add(lockTimeout)
	delay := lockRetryBase
	waited := false
	for {
		f, ok, err := tryLockFile(path)
		if err != nil {
			return nil, fmt.Errorf("workload: cache writer lock %s: %w", path, err)
		}
		if ok {
			writeLockOwner(f)
			return &fsLock{path: path, f: f}, nil
		}
		if !waited {
			waited = true
			lockWaits.Add(1)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("workload: %w after %v acquiring %s (holder: %s)",
				errLockTimeout, lockTimeout, path, readLockOwner(path))
		}
		time.Sleep(delay)
		if delay *= 2; delay > lockRetryMax {
			delay = lockRetryMax
		}
	}
}

// release drops the lock. Safe on a nil receiver so degraded callers
// can release unconditionally.
func (l *fsLock) release() {
	if l == nil {
		return
	}
	unlockFile(l.f, l.path)
}

// writeLockOwner records the holder (pid + wall time) in the lock file,
// best-effort: purely diagnostic, read back by readLockOwner for
// timeout errors and by humans inspecting a wedged cache directory.
func writeLockOwner(f *os.File) {
	if f == nil {
		return
	}
	_ = f.Truncate(0)
	_, _ = f.WriteAt([]byte(fmt.Sprintf("pid=%d time=%s\n", os.Getpid(),
		time.Now().UTC().Format(time.RFC3339))), 0)
}

// readLockOwner reports the recorded holder of the lock file, for
// diagnostics only ("unknown" when unreadable or empty).
func readLockOwner(path string) string {
	data, err := os.ReadFile(path)
	if err != nil || len(data) == 0 {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

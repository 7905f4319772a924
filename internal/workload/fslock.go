package workload

// The cache-directory writer lock: an advisory, cross-process exclusive
// lock (cells.lock) held around each batch of segment appends (one
// acquisition per group commit, not per record), sidecar flushes, and
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
// errLockTimeout sentinel tells the retry layer in cellStore.commit not
// to burn further rounds on a lock that just spent the whole bound.
//
// Staleness: on Unix the lock is a kernel flock, released automatically
// when the holder exits or crashes — a leftover cells.lock FILE is
// inert and is deliberately never removed (unlinking a lock file races
// a concurrent acquirer holding the same inode). The portable fallback
// (fslock_stub.go) uses O_EXCL sentinel files with age-based stale-lock
// removal instead. The lock file's content — one fixed-width,
// space-padded "pid=… time=…" line that every holder overwrites in
// place, never truncating (see writeLockOwner) — is diagnostic only and
// is surfaced in timeout errors.

import (
	"bytes"
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
// it; real contention windows are one batch append (sub-millisecond),
// so the default only trips when a holder wedges or a foreign process
// holds the lock across a long compaction.
var lockTimeout = 10 * time.Second

// errLockTimeout marks an acquisition that exhausted lockTimeout.
// cellStore.commit skips its transient-error retries for it: the
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

// lockOwnerWidth is the fixed size of the owner record: "pid=… time=…"
// padded with spaces and ended by a newline. The longest record, a
// 20-digit pid and an RFC 3339 UTC time, is 50 bytes.
const lockOwnerWidth = 64

// writeLockOwner records the holder (pid + wall time) in the lock file,
// best-effort: purely diagnostic, read back by readLockOwner for
// timeout errors and by humans inspecting a wedged cache directory. It
// overwrites the record in place at a fixed width, so the padding
// covers any record an earlier holder left. It never truncates: ext4
// flushes a file truncated to zero when it is closed, which would cost
// a data flush per acquisition.
func writeLockOwner(f *os.File) {
	if f == nil {
		return
	}
	rec := make([]byte, 0, lockOwnerWidth)
	rec = fmt.Appendf(rec, "pid=%d time=%s", os.Getpid(), time.Now().UTC().Format(time.RFC3339))
	for len(rec) < lockOwnerWidth-1 {
		rec = append(rec, ' ')
	}
	rec = append(rec, '\n')
	_, _ = f.WriteAt(rec, 0)
}

// readLockOwner reports the recorded holder of the lock file, for
// diagnostics only ("unknown" when unreadable or empty): the first
// line, padding trimmed. Reading one line also ignores whatever a
// foreign writer may have left beyond the fixed-width record.
func readLockOwner(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	if owner := strings.TrimSpace(string(line)); owner != "" {
		return owner
	}
	return "unknown"
}

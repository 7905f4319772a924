//go:build !unix

package workload

// Portable fallback writer lock for platforms without flock(2):
// creating cells.lock with O_EXCL is the lock, removing it the unlock.
// Unlike flock, a crashed holder leaves the sentinel behind, so
// acquisition treats a lock file older than staleLockAge as abandoned
// and removes it — genuine holders refresh the file's timestamp on
// every acquisition, so only a dead holder's sentinel ages out.

import (
	"os"
	"time"
)

// staleLockAge is how old an O_EXCL sentinel must be before an acquirer
// may break it. Writer critical sections are one batch append
// (milliseconds) or one compaction (seconds); minutes of age means a
// dead holder.
const staleLockAge = 10 * time.Minute

// tryLockFile makes one attempt at the sentinel lock.
func tryLockFile(path string) (*os.File, bool, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err == nil {
		return f, true, nil
	}
	if !os.IsExist(err) {
		return nil, false, err
	}
	// Held — or abandoned by a crashed holder. Age decides; the next
	// attempt races fairly for the freed sentinel.
	if fi, statErr := os.Stat(path); statErr == nil && time.Since(fi.ModTime()) > staleLockAge {
		_ = os.Remove(path)
	}
	return nil, false, nil
}

// unlockFile releases the sentinel.
func unlockFile(f *os.File, path string) {
	if f != nil {
		f.Close()
	}
	_ = os.Remove(path)
}

package workload

// Cache-directory plumbing for the cell store: where the directory
// lives (by default ~/.cache/repro/sweeps), the fingerprint hash its
// index is keyed by, and purging it. Repeated CLI invocations
// (cmd/figgen, cmd/ssslab, cmd/streamdecide) share the directory, so
// they skip recomputation across processes, not just within one. The
// per-cell store (cellstore.go) owns the record format, the fingerprint
// scheme, and the degrade-on-write-failure policy.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
)

// cacheDirEnv overrides the default disk cache location, so CI runs in a
// hermetic temp dir and never reads a stale developer cache.
const cacheDirEnv = "CACHE_DIR"

// DefaultDiskCacheDir returns the disk cache directory: $CACHE_DIR if
// set, else <user cache dir>/repro/sweeps (~/.cache/repro/sweeps on
// Linux).
func DefaultDiskCacheDir() (string, error) {
	if dir := os.Getenv(cacheDirEnv); dir != "" {
		return dir, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("workload: resolving cache dir: %w", err)
	}
	return filepath.Join(base, "repro", "sweeps"), nil
}

// ResolveCacheDir maps a CLI -cache-dir flag value onto a directory:
// an explicit path wins, "" selects the default (CACHE_DIR env, then
// ~/.cache/repro/sweeps), and "off" / "none" disable disk persistence
// (returning the empty string). An environment with no resolvable cache
// location (neither $CACHE_DIR nor a user cache dir, e.g. a minimal
// container without $HOME) degrades to persistence off rather than
// failing: the cache is an accelerator, never a requirement.
func ResolveCacheDir(flagValue string) (string, error) {
	switch flagValue {
	case "off", "none":
		return "", nil
	case "":
		dir, err := DefaultDiskCacheDir()
		if err != nil {
			warnPersistenceOff(err)
			return "", nil
		}
		return dir, nil
	default:
		return flagValue, nil
	}
}

// segKey is the fixed-size fingerprint hash the resident segment index
// and the binary sidecar are keyed by: the first 16 bytes of
// sha256(fingerprint). A fixed-size array key keeps a 10⁶-entry index
// at 16 bytes per key (no string headers, no per-lookup hashing of
// ~250-byte fingerprints). The key is a locator, never an authority:
// every record embeds its full fingerprint, and decode rejects any
// record whose embedded fingerprint is not the requested one, so a
// prefix collision is a miss, not a wrong row.
type segKey [16]byte

// bytesSegKey hashes raw fingerprint bytes (scan-time keying, where the
// fingerprint is a slice into the record payload).
func bytesSegKey(fingerprint []byte) segKey {
	sum := sha256.Sum256(fingerprint)
	var k segKey
	copy(k[:], sum[:])
	return k
}

// fingerprintSegKey hashes a fingerprint string to its index key.
func fingerprintSegKey(fingerprint string) segKey {
	return bytesSegKey([]byte(fingerprint))
}

// PurgeDiskCache deletes every cache file under dir ("" selects the
// default directory): the segment file and its index sidecar, leftover
// temp files, and any *.json files — the loose v1 per-cell records an
// older build wrote, which nothing reads any more. The directory's
// in-memory segment store is reset so the process does not keep serving
// an index whose segment is gone. Other files are left alone; a missing
// directory is not an error.
func PurgeDiskCache(dir string) error {
	if dir == "" {
		var err error
		if dir, err = DefaultDiskCacheDir(); err != nil {
			return err
		}
	}
	resetSegmentStore(dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("workload: purging disk cache: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if filepath.Ext(name) != ".json" && name != segmentFileName && name != segmentIndexName {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("workload: purging disk cache: %w", err)
		}
	}
	removeTempFiles(dir, 0)
	return nil
}

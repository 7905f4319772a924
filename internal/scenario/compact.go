package scenario

// Cache-maintenance entry point shared by the grid CLIs, next to
// AxisFlags for the same reason: ssslab and streamdecide must present
// one cache vocabulary, so the -compact-cache behavior (resolution,
// error wording, summary format) lives here once.

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/units"
	"repro/internal/workload"
)

// RunFlag names one run-shaped flag a CLI checked against a standalone
// mode: Name as the user spells it ("-grid", "-mode live"), Set whether
// the invocation used it.
type RunFlag struct {
	Name string
	Set  bool
}

// CompactCacheConflicts validates -compact-cache's standalone-mode
// contract for any CLI: if the invocation also set run-shaped flags,
// refuse with the shared wording (naming every flag the mode excludes,
// so the user sees the full contract, not just the flag that tripped
// it) rather than silently dropping them. Hoisted here so ssslab,
// streamdecide, and decided cannot drift apart in behavior or wording.
func CompactCacheConflicts(tool string, flags []RunFlag) error {
	conflict := false
	names := make([]string, 0, len(flags))
	for _, f := range flags {
		names = append(names, f.Name)
		conflict = conflict || f.Set
	}
	if !conflict {
		return nil
	}
	return fmt.Errorf("-compact-cache is a standalone maintenance mode (usage: %s -compact-cache [-cache-dir DIR]; drop %s)",
		tool, strings.Join(names, "/"))
}

// CacheStatsRequires is the shared wording for a -cache-stats request
// in a mode that never touches the sweep caches: headline states the
// rule, usage shows a correct invocation, reason says why the mode is
// excluded.
func CacheStatsRequires(headline, usage, reason string) error {
	return fmt.Errorf("%s (usage: %s; %s)", headline, usage, reason)
}

// RunCompactCache implements the CLIs' -compact-cache mode: resolve the
// cache directory the way every grid run does, fold dead segment space
// out of a fresh segment file + index sidecar, and report what was
// reclaimed.
func RunCompactCache(out io.Writer, cacheDirFlag string) error {
	dir, err := workload.ResolveCacheDir(cacheDirFlag)
	if err != nil {
		return err
	}
	if dir == "" {
		return fmt.Errorf("-compact-cache needs a cache directory (pass -cache-dir DIR or set $CACHE_DIR; persistence is off)")
	}
	st, err := workload.CompactDiskCache(dir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "compacted %s: %d records in %v segment, %v reclaimed\n",
		dir, st.Records, units.ByteSize(st.SegmentBytes), units.ByteSize(st.ReclaimedBytes))
	return nil
}

package scenario

// Cache-maintenance entry point shared by the CLIs, next to AxesSpec
// for the same reason: ssslab, streamdecide and decided must present
// one cache vocabulary, so the -compact-cache behavior (the standalone
// rule, resolution, error wording, summary format) lives here once.

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/units"
	"repro/internal/workload"
)

// RunCompactCache implements the CLIs' standalone -compact-cache mode
// over the invocation's parsed FlagSet. Every flag the invocation set
// other than -compact-cache and -cache-dir is refused by name rather
// than silently dropped, so ssslab, streamdecide and decided cannot
// drift apart. Otherwise it resolves the cache directory the way every
// grid run does, folds dead segment space out of a fresh segment file
// + index sidecar, and reports what was reclaimed.
func RunCompactCache(fs *flag.FlagSet, out io.Writer, cacheDirFlag string) error {
	var extra []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "compact-cache" && f.Name != "cache-dir" {
			extra = append(extra, "-"+f.Name)
		}
	})
	if len(extra) > 0 {
		return fmt.Errorf("-compact-cache is a standalone maintenance mode (usage: %s -compact-cache [-cache-dir DIR]; drop %s)",
			fs.Name(), strings.Join(extra, "/"))
	}
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

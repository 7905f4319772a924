// Command figgen regenerates every table and figure from the paper's
// evaluation section as ASCII charts and CSV files.
//
// Usage:
//
//	figgen [-sweep quick|paper] [-only id] [-out dir] [-list]
//	       [-cache-dir DIR|off]
//
// With -out, each artifact is written as <id>.txt and <id>.csv under the
// directory; otherwise everything prints to stdout. -only restricts
// generation to one artifact ID (see -list for IDs). Sweep results are
// persisted under -cache-dir (default $CACHE_DIR, else
// ~/.cache/repro/sweeps), so regenerating figures recomputes nothing
// once the sweep has run anywhere on the machine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("figgen", flag.ContinueOnError)
	sweepName := fs.String("sweep", "paper", "sweep scale: quick or paper (Table 2 full)")
	only := fs.String("only", "", "generate only this artifact ID")
	outDir := fs.String("out", "", "write artifacts to this directory instead of stdout")
	list := fs.Bool("list", false, "list artifact IDs and exit")
	cacheDir := fs.String("cache-dir", "",
		"sweep disk cache directory (default $CACHE_DIR, else ~/.cache/repro/sweeps; \"off\" disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(out, "table1 table2 fig2a fig2b fig3 fig4 table3 regimes casestudy headline",
			"ext-heatmap ext-variability ext-pipeline ext-gainmap ext-hopfrontier")
		return nil
	}

	var sweep workload.Axes
	switch *sweepName {
	case "quick":
		sweep = experiments.QuickSweep()
	case "paper":
		sweep = experiments.PaperSweep()
	default:
		return fmt.Errorf("unknown sweep %q (want quick or paper)", *sweepName)
	}

	dir, err := workload.ResolveCacheDir(*cacheDir)
	if err != nil {
		return err
	}
	workload.SetDiskCacheDir(dir)

	suite, err := experiments.RunAll(sweep)
	if err != nil {
		return err
	}

	selected := suite.Artifacts
	if *only != "" {
		a, ok := suite.Get(strings.ToLower(*only))
		if !ok {
			return fmt.Errorf("unknown artifact %q (try -list)", *only)
		}
		selected = selected[:0]
		selected = append(selected, a)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", *outDir, err)
		}
		for _, a := range selected {
			txt := filepath.Join(*outDir, a.ID+".txt")
			if err := os.WriteFile(txt, []byte(a.String()), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", txt, err)
			}
			if a.CSV != "" {
				csv := filepath.Join(*outDir, a.ID+".csv")
				if err := os.WriteFile(csv, []byte(a.CSV), 0o644); err != nil {
					return fmt.Errorf("writing %s: %w", csv, err)
				}
			}
			fmt.Fprintf(out, "wrote %s\n", txt)
		}
		return nil
	}

	for _, a := range selected {
		fmt.Fprintln(out, a.String())
	}
	return nil
}

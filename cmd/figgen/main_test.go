package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig2a", "casestudy", "headline"} {
		if !strings.Contains(out.String(), id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestOnlyToStdout(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sweep", "quick", "-only", "table3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Coherent Scattering") {
		t.Errorf("table3 content missing:\n%s", out.String())
	}
	if strings.Contains(out.String(), "fig2a:") {
		t.Error("-only leaked other artifacts")
	}
}

func TestOutDirWritesFiles(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-sweep", "quick", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table1.txt", "fig2a.txt", "fig2a.csv", "fig4.csv", "headline.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing %s: %v", f, err)
		}
	}
	// headline has no CSV.
	if _, err := os.Stat(filepath.Join(dir, "headline.csv")); err == nil {
		t.Error("headline.csv should not exist")
	}
}

func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sweep", "galactic"}, &out); err == nil {
		t.Error("bad sweep accepted")
	}
	if err := run([]string{"-sweep", "quick", "-only", "fig99"}, &out); err == nil {
		t.Error("unknown artifact accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestMain points CACHE_DIR at a throwaway directory so tests never read
// or write the developer's real sweep cache.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "figgen-cache")
	if err != nil {
		panic(err)
	}
	os.Setenv("CACHE_DIR", dir)
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestWarmDiskCache: regenerating an artifact in a fresh "process"
// (purged in-memory caches) is served entirely from the disk cache.
func TestWarmDiskCache(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-sweep", "quick", "-only", "fig2a", "-cache-dir", dir}

	workload.PurgeGridCache()
	var cold strings.Builder
	if err := run(args, &cold); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no cache files written (err %v)", err)
	}

	workload.PurgeGridCache()
	before := workload.EngineRunCount()
	var warm strings.Builder
	if err := run(args, &warm); err != nil {
		t.Fatal(err)
	}
	if runs := workload.EngineRunCount() - before; runs != 0 {
		t.Errorf("warm figgen ran %d experiments, want 0", runs)
	}
	if warm.String() != cold.String() {
		t.Error("warm artifact differs from cold artifact")
	}
}

package workload

import (
	"testing"
	"time"

	"repro/internal/units"
)

// TestParallelMatchesSerial: the executor's rows — per-client transfer
// times included — are bit-identical to the serial reference sweep for
// any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := fastSweep()
	serial, err := referenceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 0} { // 0 = GOMAXPROCS
		parallel, err := RunGridParallel(cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(parallel.Rows) != len(serial) {
			t.Fatalf("workers=%d: rows %d vs %d", workers, len(parallel.Rows), len(serial))
		}
		for i := range serial {
			a, b := serial[i], parallel.Rows[i].SweepRow
			if a.Concurrency != b.Concurrency || a.ParallelFlows != b.ParallelFlows ||
				a.Worst != b.Worst || a.SSS != b.SSS || a.Utilization != b.Utilization {
				t.Fatalf("workers=%d row %d diverged:\nserial   %+v\nparallel %+v",
					workers, i, a, b)
			}
			// Per-client transfer times must match too (full determinism).
			if len(a.TransferTimes) != len(b.TransferTimes) {
				t.Fatalf("workers=%d row %d client counts differ", workers, i)
			}
			for j := range a.TransferTimes {
				if a.TransferTimes[j] != b.TransferTimes[j] {
					t.Fatalf("workers=%d row %d client %d diverged", workers, i, j)
				}
			}
		}
	}
}

func TestParallelEmptyAxes(t *testing.T) {
	cfg := fastSweep()
	cfg.ParallelFlows = nil
	if _, err := RunGridParallel(cfg, 2); err == nil {
		t.Fatal("empty axes accepted")
	}
}

func TestParallelPropagatesCellErrors(t *testing.T) {
	cfg := fastSweep()
	undrainable(&cfg.Net) // every cell exceeds the horizon
	if _, err := RunGridParallel(cfg, 4); err == nil {
		t.Fatal("horizon error swallowed")
	}
}

// TestParallelColdRunPersists: a 4-worker cold run into a fresh
// directory shares one record batch across its workers. Its rows are
// byte-identical to a serial run with the cache off, every cell runs
// the engine once and lands in the segment exactly once, and the next
// warm open simulates nothing. Not skipped by -short, so the race
// detector sees the shared batch.
func TestParallelColdRunPersists(t *testing.T) {
	a := fastAxes()
	a.Concurrencies = []int{2, 4, 6}
	a.RTTs = []time.Duration{8 * time.Millisecond, 16 * time.Millisecond, 32 * time.Millisecond, 64 * time.Millisecond}
	a.Buffers = []units.ByteSize{0, units.MB, 2 * units.MB, 4 * units.MB}
	n := a.Size()
	if n <= 2*batchMaxRecords {
		t.Fatalf("grid of %d cells spans fewer than three batches", n)
	}
	ref, err := RunGridParallel(a, 1)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	c := NewGridCache()
	c.SetDiskDir(dir)
	cold, st, err := c.GetStats(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.EngineRuns != int64(n) {
		t.Errorf("cold run: EngineRuns = %d, want %d", st.EngineRuns, n)
	}
	if gridRowsJSON(t, cold.Rows) != gridRowsJSON(t, ref.Rows) {
		t.Error("parallel persisted rows differ from RunGridParallel(a, 1)")
	}
	if got := segmentRecordCount(dir); got != n {
		t.Errorf("segment indexes %d records, want %d", got, n)
	}

	rows, d := warmRunStats(t, dir, a)
	if d.EngineRuns != 0 {
		t.Errorf("warm open executed %d experiments, want 0", d.EngineRuns)
	}
	if gridRowsJSON(t, rows) != gridRowsJSON(t, ref.Rows) {
		t.Error("warm rows differ from RunGridParallel(a, 1)")
	}
	st2, err := CompactDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ReclaimedBytes != 0 || st2.Records != n {
		t.Errorf("compaction: %d records, %d bytes reclaimed; want %d records and no dead space", st2.Records, st2.ReclaimedBytes, n)
	}
}

package workload

import (
	"testing"
)

// TestParallelMatchesSerial: the executor's rows — full per-client
// records included — are bit-identical to the serial reference sweep
// for any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := fastSweep()
	cfg.KeepClientResults = true // compare full per-client records below
	serial, err := referenceSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 0} { // 0 = GOMAXPROCS
		parallel, err := RunGridParallel(AxesFromSweep(cfg), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(parallel.Rows) != len(serial.Rows) {
			t.Fatalf("workers=%d: rows %d vs %d", workers, len(parallel.Rows), len(serial.Rows))
		}
		for i := range serial.Rows {
			a, b := serial.Rows[i], parallel.Rows[i].SweepRow
			if a.Concurrency != b.Concurrency || a.ParallelFlows != b.ParallelFlows ||
				a.Worst != b.Worst || a.SSS != b.SSS || a.Utilization != b.Utilization {
				t.Fatalf("workers=%d row %d diverged:\nserial   %+v\nparallel %+v",
					workers, i, a, b)
			}
			// Per-client records must match too (full determinism).
			if len(a.Result.Clients) != len(b.Result.Clients) {
				t.Fatalf("workers=%d row %d client counts differ", workers, i)
			}
			for j := range a.Result.Clients {
				if a.Result.Clients[j] != b.Result.Clients[j] {
					t.Fatalf("workers=%d row %d client %d diverged", workers, i, j)
				}
			}
		}
	}
}

func TestParallelEmptyAxes(t *testing.T) {
	cfg := fastSweep()
	cfg.ParallelFlows = nil
	if _, err := RunGridParallel(AxesFromSweep(cfg), 2); err == nil {
		t.Fatal("empty axes accepted")
	}
}

func TestParallelPropagatesCellErrors(t *testing.T) {
	cfg := fastSweep()
	cfg.Net.MaxTime = 0.01 // every cell exceeds the horizon
	if _, err := RunGridParallel(AxesFromSweep(cfg), 4); err == nil {
		t.Fatal("horizon error swallowed")
	}
}

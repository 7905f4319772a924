package workload

// The incremental grid planner: plan → fetch → execute-missing →
// assemble. Instead of running a requested Axes whole and caching the
// result as one opaque blob, the planner partitions the grid into cells
// already present in the cell store (loaded — zero engine runs) and
// cells that are genuinely missing (executed on the engine-per-worker
// pool, then stored). Any overlap with any previously computed grid —
// a sub-grid, a superset, a partially overlapping envelope probe — is
// reused at cell granularity.
//
// The fetch phase fingerprints every cell (on a bounded worker pool,
// inline when the pool is 1) and then makes one streaming pass over the
// segment store (segstore.go loadStream): requested records are read
// in offset-sorted runs and decoded behind the reader. Workers write
// disjoint row slots, and the assembly below walks cells in grid
// order, so the result — rows, missing-cell order, and every CacheStats
// counter — is byte-identical for any worker count.

import (
	"runtime"
	"sync"
)

// fetchWorkersMax caps the planner's record-load pool: loads are
// I/O-bound, so the cap may sit above small-machine GOMAXPROCS values,
// but must stay small enough not to stampede a network filesystem.
const fetchWorkersMax = 16

// fetchPoolSize sizes the fetch pool from the machine:
// min(fetchWorkersMax, GOMAXPROCS). A var so tests pin odd sizes and
// prove assembly stays byte-identical for any pool.
var fetchPoolSize = func() int {
	if n := runtime.GOMAXPROCS(0); n < fetchWorkersMax {
		return n
	}
	return fetchWorkersMax
}

// gridPlan partitions one requested (normalized) grid.
type gridPlan struct {
	axes Axes
	// rows is the full result in grid order; cached cells are pre-filled
	// by planGrid, missing cells by executeCells.
	rows []GridRow
	// missing lists the cells that must execute on the engine pool, in
	// grid order.
	missing []GridCell
	// fps holds the cell fingerprint per grid row index (empty when the
	// plan does not persist), so freshly computed cells store under the
	// same key the fetch looked up.
	fps []string
	// persist gates the cell store: off when no store is configured or
	// when rows pin client results (those stay memory-only).
	persist bool
	// fromSegment tallies the cached cells — the plan's own copy of
	// what planGrid added to the process-wide counter, so one request's
	// service can be attributed exactly even while other requests
	// mutate the globals.
	fromSegment int64
}

// planGrid fetches every cached cell of the grid from the store and
// returns the plan describing what remains. a must be normalized. With
// persistence off (nil store, no directory, or KeepClientResults) every
// cell is missing and the plan degenerates to a whole-grid run.
func planGrid(a Axes, store *cellStore) *gridPlan {
	cells := a.Cells()
	p := &gridPlan{
		axes: a,
		rows: make([]GridRow, len(cells)),
		// activeDir also covers a degraded store: with persistence off
		// the plan skips fingerprinting entirely and degenerates to a
		// whole-grid run.
		persist: store != nil && store.activeDir() != "" && !a.KeepClientResults,
	}
	if !p.persist {
		p.missing = cells
		return p
	}
	p.fps = make([]string, len(cells))
	workers := min(fetchPoolSize(), len(cells))
	if workers <= 1 {
		for i, c := range cells {
			p.fps[i] = cellFingerprint(a.experiment(c))
		}
	} else {
		// Contiguous shards: cell i's fingerprint lands in fps[i]
		// whatever the split.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := len(cells)*w/workers, len(cells)*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					p.fps[i] = cellFingerprint(a.experiment(cells[i]))
				}
			}()
		}
		wg.Wait()
	}
	store.loadStream(p.fps, cells, p.rows, workers)
	// Assemble in grid order: the missing list and the counter come out
	// identical whatever interleaving the stream ran. A served row
	// always carries TransferTimes (acceptRow); a miss is the zero row.
	for i, c := range cells {
		if len(p.rows[i].TransferTimes) > 0 {
			p.fromSegment++
		} else {
			p.missing = append(p.missing, c)
		}
	}
	cellsFromSegment.Add(p.fromSegment)
	return p
}

// runGridIncrementalStats is the pipeline behind the grid cache: plan
// the grid against the cell store (streaming fetch), execute only the
// missing cells, group-commit the fresh records in batches
// (recordBatch) as the workers finish them, assemble the rows in grid
// order, and flush the segment index sidecar once. Bit-identical to
// RunGridParallel for any store content, any worker count, and any
// interleaving of prior grids — every cell is
// independently seeded from its own coordinates, so a loaded record and
// a recomputed row are the same bytes. It also returns an exact
// per-request CacheStats: the attribution is derived from the plan
// itself (cached cells from the segment, missing cells as engine runs), not
// from deltas of the process-wide counters, so it stays correct when
// many requests run concurrently in one process — the situation a
// long-lived server is always in. LockWaits, IndexLoad and BytesRead
// are not attributable to one request (they are shared across whatever
// requests happen to contend or trigger the one-time index load) and
// are reported as 0 here; the process-wide ReadCacheStats carries them.
func runGridIncrementalStats(a Axes, workers int, store *cellStore) (*GridResult, CacheStats, error) {
	if err := a.Validate(); err != nil {
		return nil, CacheStats{}, err
	}
	a = a.normalized()
	plan := planGrid(a, store)
	stats := CacheStats{
		CellsRequested:   int64(len(plan.rows)),
		CellsFromSegment: plan.fromSegment,
		EngineRuns:       int64(len(plan.missing)),
	}
	if len(plan.missing) > 0 {
		var onRow func(GridCell)
		var batch *recordBatch
		if plan.persist {
			batch = &recordBatch{store: store}
			onRow = func(c GridCell) {
				batch.add(plan.fps[c.Index], plan.rows[c.Index].SweepRow)
			}
		}
		err := executeCells(a, plan.missing, plan.rows, workers, onRow)
		if batch != nil {
			// The remainder lands before the sidecar flush, and on the
			// error path too: every computed record is kept.
			batch.flush()
		}
		if err != nil {
			return nil, CacheStats{}, err
		}
	}
	if plan.persist {
		// One sidecar rewrite per run (appends AND defective-record
		// drops), not one per record.
		store.flush()
	}
	return &GridResult{Axes: a, Rows: plan.rows}, stats, nil
}

package workload

import "sync"

// memo is a single-flight memoization map: concurrent gets for the same
// key run one compute and share the result. A compute that fails is not
// kept: every get that shared it returns its error, and the next get
// computes again. It backs GridCache.
type memo[T any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[T]
}

type memoEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (m *memo[T]) get(key string, compute func() (T, error)) (T, error) {
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[string]*memoEntry[T])
	}
	e, ok := m.entries[key]
	if !ok {
		e = &memoEntry[T]{}
		m.entries[key] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val, e.err = compute() })
	if e.err != nil {
		// Evict only this entry: a purge, or an earlier get's eviction
		// followed by a fresh compute, may already have replaced it.
		m.mu.Lock()
		if m.entries[key] == e {
			delete(m.entries, key)
		}
		m.mu.Unlock()
	}
	return e.val, e.err
}

func (m *memo[T]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

func (m *memo[T]) purge() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[string]*memoEntry[T])
}

// GridCache memoizes scenario-grid results by Axes fingerprint, so
// pipelines that regenerate several artifacts from the same grid or
// sweep (Fig. 2a → Fig. 3 → case study, repeated benchmark iterations)
// compute each distinct grid exactly once. Lookups are single-flight:
// concurrent Get calls for the same fingerprint run one compute and
// share the result. With a disk directory set (SetDiskDir), the grid's
// cells persist as individual records in the cell store, shared with
// every grid that contains them.
//
// Cached *GridResult values are SHARED — treat them as read-only. Keep
// Axes.KeepClientResults off for cached grids (the default) so the
// cache holds only per-row aggregates; grids that keep client results
// are never persisted to disk.
type GridCache struct {
	mem   memo[*GridResult]
	cells cellStore
}

// NewGridCache returns an empty cache with disk persistence off.
func NewGridCache() *GridCache { return &GridCache{} }

// SetDiskDir points the cache's cell store at a disk directory (""
// disables persistence).
func (c *GridCache) SetDiskDir(dir string) { c.cells.setDir(dir) }

// DiskDir returns the configured disk directory ("" when persistence is
// off or the store has degraded after a write failure).
func (c *GridCache) DiskDir() string { return c.cells.activeDir() }

// Len reports how many distinct results the cache holds in memory.
func (c *GridCache) Len() int { return c.mem.len() }

// Purge empties the in-memory memo. Cell records persist on disk; use
// PurgeDiskCache to remove those.
func (c *GridCache) Purge() { c.mem.purge() }

// Get returns the cached result for the grid, assembling it through the
// incremental planner on first use: any cell previously computed by any
// grid sharing the cache directory loads from its record, and
// only genuinely missing cells run on the engine pool. A sub-grid of a
// previously-run grid is therefore served with zero engine runs.
func (c *GridCache) Get(a Axes, workers int) (*GridResult, error) {
	res, _, err := c.GetStats(a, workers)
	return res, err
}

// GetStats is Get plus an exact per-request CacheStats: how THIS
// request's cells were served, independent of whatever other requests
// are doing to the process-wide counters concurrently — the request-
// scoped entry point a long-lived server reports per response. The
// request that performs the compute gets the planner's attribution
// (segment hits and engine runs); a request served by the memo —
// including one that arrived while another request was computing the
// same grid and coalesced onto its single flight — reports every cell
// as a memo hit and zero engine runs, because it caused none itself.
func (c *GridCache) GetStats(a Axes, workers int) (*GridResult, CacheStats, error) {
	if err := a.Validate(); err != nil {
		return nil, CacheStats{}, err
	}
	a = a.normalized()
	cellsRequested.Add(int64(a.Size()))
	var reqStats CacheStats
	computed := false
	res, err := c.mem.get(a.Fingerprint(), func() (*GridResult, error) {
		computed = true
		g, st, err := runGridIncrementalStats(a, workers, &c.cells)
		reqStats = st
		return g, err
	})
	if err != nil {
		return nil, CacheStats{}, err
	}
	if !computed {
		cellsFromMemo.Add(int64(a.Size()))
		reqStats = CacheStats{CellsRequested: int64(a.Size()), CellsFromMemo: int64(a.Size())}
	}
	return res, reqStats, nil
}

// defaultGridCache backs the process-wide cached entry points.
var defaultGridCache = NewGridCache()

// SetDiskCacheDir enables (or, with "", disables) disk persistence on
// the process-wide grid cache. CLIs call this once at startup with the
// resolved -cache-dir value.
func SetDiskCacheDir(dir string) { defaultGridCache.SetDiskDir(dir) }

// RunSweepCached returns the process-wide cached result for cfg: a
// view over the grid cache's entry for AxesFromSweep(cfg), so a sweep
// and its grid share one memo entry and one set of cell records. The
// rows' TransferTimes share the cached grid's arrays — treat the result
// as read-only. The workers count does not key the cache: the executor
// is bit-identical for every worker count.
func RunSweepCached(cfg SweepConfig, workers int) (*SweepResult, error) {
	g, err := RunGridCached(AxesFromSweep(cfg), workers)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Config: cfg, Rows: make([]SweepRow, len(g.Rows))}
	for i := range g.Rows {
		out.Rows[i] = g.Rows[i].SweepRow
	}
	return out, nil
}

// RunGridCached returns the process-wide cached result for the grid,
// computing it in parallel on first use. Treat the result as read-only.
func RunGridCached(a Axes, workers int) (*GridResult, error) {
	return defaultGridCache.Get(a, workers)
}

// RunGridRequest is RunGridCached plus the request-scoped CacheStats
// attribution of GridCache.GetStats — the entry point request-serving
// callers (cmd/decided via internal/service) use to report per-request
// cache behavior.
func RunGridRequest(a Axes, workers int) (*GridResult, CacheStats, error) {
	return defaultGridCache.GetStats(a, workers)
}

// PurgeGridCache empties the process-wide in-memory grid cache.
func PurgeGridCache() { defaultGridCache.Purge() }

package workload

// The cell store: cell-granular disk persistence for the sweep/grid
// caches. Every GridCell outcome is stored as an independently
// addressable, version-stamped record keyed by the fingerprint of the
// cell's own Experiment (network point + Table 2 coordinates + derived
// seed) — never by the grid that happened to compute it. Because cell
// seeds are intrinsic to cell coordinates (grid.go, netPointSeedOffset),
// a record written while computing one grid serves the identical cell of
// ANY other grid: sub-grids and overlapping grids reuse every cell ever
// computed, and a sub-grid fully contained in a previously-run grid
// assembles with zero engine runs.
//
// Since v2 the records live in an indexed segment file (segstore.go) —
// one append-only file plus an index sidecar — instead of one JSON file
// per cell: at 10⁴+ cells the per-file layout spends more time in
// filesystem metadata than in payload. Since v3 the payload inside each
// CRC-guarded frame is a fixed-layout binary row (binrecord.go) instead
// of a JSON envelope: at 10⁵+ cells the warm open was JSON-decode-bound.
// The binary segment record is the only generation the store reads:
// v2 JSON segment payloads are dead space, and loose v1 per-cell files
// are ignored (PurgeDiskCache still removes them), so a pre-v2 cache
// directory recomputes.
//
// The store is corruption-tolerant (any defective record is a miss that
// recomputes only that cell) and degrades to persistence-off — with a
// single stderr warning — the first time a write fails, so an unwritable
// cache directory costs one failed attempt, not one per cell.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// CellRecordVersion stamps the cell-record container generation: the
// index sidecar version tag. v4 marks the multi-hop path generation —
// the scenario space gained edge→WAN→ingress hop chains, so the record
// population a directory may hold changed; the binary payload layout
// ("RBC3", binrecord.go) and the RSG2 frames are untouched, and
// single-hop rows are bit-identical across the bump, so v3 binary
// payloads inside a segment keep serving (a pre-v4 *sidecar* merely
// fails the version tag and degrades to a rescan). The v4 bump DID
// drop the v2 JSON segment-payload fallback (former
// legacyCellRecordVersion, "repro-cells/v2"): a v2 JSON payload now
// reads as dead segment space — a miss that recomputes that cell —
// instead of decoding. Bump this whenever the simulation dynamics, the
// per-cell seed derivation, or the SweepRow schema change: stale
// records then fail the version check and are recomputed.
const CellRecordVersion = "repro-cells/v4"

// cellFingerprint returns the canonical key of one cell's experiment,
// covering every field that affects the cell's row: duration, the
// Table 2 coordinates, transfer size, strategy, and the full network
// config with the cell's axis overrides and derived seed already baked
// in. Equal fingerprints ⇒ bit-identical rows, which is what makes a
// stored record a sound substitute for a recompute.
// The rendering is strconv.Append* on one grown buffer rather than
// fmt.Fprintf: the fingerprint is computed once per cell per warm open
// (10⁵–10⁶ times for portfolio grids), and fmt's reflection-driven
// formatting cost more than the binary record decode it keys. The
// output bytes are pinned — byte-for-byte — by
// TestCellFingerprintMatchesReference against a fmt-based reference:
// every record already on disk is keyed by these exact strings.
func cellFingerprint(e Experiment) string {
	b := make([]byte, 0, 256)
	b = append(b, "cell;dur="...)
	b = strconv.AppendInt(b, int64(e.Duration), 10)
	b = append(b, ";conc="...)
	b = strconv.AppendInt(b, int64(e.Concurrency), 10)
	b = append(b, ";p="...)
	b = strconv.AppendInt(b, int64(e.ParallelFlows), 10)
	b = append(b, ";size="...)
	b = strconv.AppendFloat(b, float64(e.TransferSize), 'g', -1, 64)
	b = append(b, ";strat="...)
	b = strconv.AppendInt(b, int64(e.Strategy), 10)
	n := e.Net
	b = append(b, ";cap="...)
	b = strconv.AppendFloat(b, float64(n.Capacity), 'g', -1, 64)
	b = append(b, ";rtt="...)
	b = strconv.AppendInt(b, int64(n.BaseRTT), 10)
	b = append(b, ";mss="...)
	b = strconv.AppendFloat(b, float64(n.MSS), 'g', -1, 64)
	b = append(b, ";buf="...)
	b = strconv.AppendFloat(b, float64(n.Buffer), 'g', -1, 64)
	b = append(b, ";icw="...)
	b = strconv.AppendInt(b, int64(n.InitCwndSegments), 10)
	b = append(b, ";rto="...)
	b = strconv.AppendInt(b, int64(n.RTO), 10)
	b = append(b, ";seed="...)
	b = strconv.AppendInt(b, n.Seed, 10)
	// maxt, rq, xper, xduty and xjit are fixed tokens: the simulator's
	// horizon, queue recorder and on/off cross-traffic wave are gone,
	// but archived keys pin the terms at their old production values.
	b = append(b, ";maxt=0;rq=false;cc="...)
	b = strconv.AppendInt(b, int64(n.CC), 10)
	b = append(b, ";xfrac="...)
	b = strconv.AppendFloat(b, n.CrossFraction, 'g', -1, 64)
	b = append(b, ";xper=0;xduty=0;xjit=false"...)
	return string(b)
}

// cellStore persists SweepRows keyed by cell fingerprint under one
// directory. The zero value has persistence off; setDir enables it. Two
// stores pointed at the same directory share records — across cache
// instances (they share the process-wide segment store) and across
// processes — because the record key is the cell fingerprint, not the
// owning cache or grid.
type cellStore struct {
	mu       sync.Mutex
	dir      string
	disabled bool
}

// setDir points the store at a directory ("" disables persistence) and
// clears any degrade state from a previous directory.
func (s *cellStore) setDir(dir string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dir = dir
	s.disabled = false
}

// activeDir returns the directory to use now: "" when persistence is
// off or the store has degraded.
func (s *cellStore) activeDir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return ""
	}
	return s.dir
}

// disable turns persistence off for the store's lifetime (until the
// next setDir) after a write failure, warning once per process. Without
// this, an unwritable cache directory would retry — and fail — once per
// freshly computed cell.
func (s *cellStore) disable(err error) {
	s.mu.Lock()
	s.disabled = true
	s.mu.Unlock()
	warnPersistenceOff(err)
}

// persistWarnOnce collapses every degrade event in the process into ONE
// stderr warning: a 1000-cell grid on a read-only cache directory must
// not print 1000 lines. persistWarnW is swapped by tests.
var (
	persistWarnOnce sync.Once
	persistWarnW    io.Writer = os.Stderr
)

func warnPersistenceOff(err error) {
	persistWarnOnce.Do(func() {
		fmt.Fprintf(persistWarnW, "workload: disk cache unavailable, continuing without persistence: %v\n", err)
	})
}

// acceptRow is the structural acceptance check on a decoded record:
// the record must be a populated row for this cell's
// Table 2 coordinates. Anything else is corruption (or a
// fingerprint-prefix collision) and must read as a miss.
func acceptRow(rec SweepRow, c GridCell) bool {
	return rec.Concurrency == c.Concurrency && rec.ParallelFlows == c.ParallelFlows &&
		rec.Worst > 0 && len(rec.TransferTimes) > 0
}

// loadStream serves every requested cell the segment store holds a
// valid record for into rows (segStore.loadStream: a served slot holds
// its cell and row, every other slot stays the zero GridRow). No-op
// with persistence off.
func (s *cellStore) loadStream(fps []string, cells []GridCell, rows []GridRow, workers int) {
	if dir := s.activeDir(); dir != "" {
		segmentStore(dir).loadStream(fps, cells, rows, workers)
	}
}

// storeRetries / storeRetryDelay shape the transient-fault retry in
// commit: a failed batch append is retried storeRetries times with
// exponentially growing sleeps (delay, 2·delay, …) before the store
// degrades. Vars so tests shrink the delay.
var (
	storeRetries    = 2
	storeRetryDelay = 5 * time.Millisecond
)

// batchMaxRecords / batchMaxBytes bound one grid run's pending batch:
// when either is reached, the batch is appended to the segment. 32
// records spread one lock cycle and resync (~10 µs) to well under a
// microsecond per record; 256 KiB keeps a batch of large rows from
// holding memory or the lock for long.
const (
	batchMaxRecords = 32
	batchMaxBytes   = 256 << 10
)

// recordBatch is one grid run's group commit: workers encode their
// freshly computed records off every lock and add them here, and the
// batch is appended to the segment in one write under one writer-lock
// acquisition (segStore.appendBatch) each time it reaches its bound,
// and once more for the remainder at the end of the run. Records
// become visible to other runs and processes per batch, and all of
// them by the end of the run.
type recordBatch struct {
	store *cellStore
	mu    sync.Mutex
	buf   []byte       // framed records, concatenated
	recs  []pendingRec // their keys and lengths, in buf order
}

// add queues one record, and commits the batch when it reaches its
// bound. Other workers go on adding while it is committed; a batch may
// overshoot the bound by the records added meanwhile.
func (b *recordBatch) add(fp string, row SweepRow) {
	rec, err := encodeSegRecord(fp, row)
	if err != nil {
		b.store.disable(err)
		return
	}
	b.mu.Lock()
	b.buf = append(b.buf, rec...)
	b.recs = append(b.recs, pendingRec{key: fingerprintSegKey(fp), size: len(rec)})
	full := len(b.recs) >= batchMaxRecords || len(b.buf) >= batchMaxBytes
	b.mu.Unlock()
	if full {
		b.flush()
	}
}

// flush commits whatever the batch holds.
func (b *recordBatch) flush() {
	b.mu.Lock()
	buf, recs := b.buf, b.recs
	b.buf, b.recs = nil, nil
	b.mu.Unlock()
	if len(recs) > 0 {
		b.store.commit(buf, recs)
	}
}

// commit appends a batch of framed records to the segment, best-effort:
// cache writes must never fail a run. Transient failures (a flaky
// device, a momentary ENOSPC) are retried with backoff — a short
// write's torn record becomes dead space and the retry re-appends from
// it, keeping every whole record that landed before it — and only a
// batch that keeps failing degrades the whole store to persistence-off.
// Lock-acquisition timeouts skip the retries: the acquisition itself
// already retried with backoff for the full lockTimeout bound.
func (s *cellStore) commit(buf []byte, recs []pendingRec) {
	dir := s.activeDir()
	if dir == "" {
		return
	}
	seg := segmentStore(dir)
	var err error
	for attempt := 0; ; attempt++ {
		var done int
		done, err = seg.appendBatch(buf, recs)
		for _, r := range recs[:done] {
			buf = buf[r.size:]
		}
		recs = recs[done:]
		if err == nil {
			return
		}
		if attempt >= storeRetries || errors.Is(err, errLockTimeout) {
			break
		}
		time.Sleep(storeRetryDelay << attempt)
	}
	s.disable(err)
}

// flush rewrites the segment index sidecar if this run changed it —
// called once per grid run, so batch appends stay sidecar-free.
func (s *cellStore) flush() {
	if dir := s.activeDir(); dir != "" {
		segmentStore(dir).flushIndex()
	}
}

// Cache observability counters, next to engineRuns (workload.go). All
// are cumulative and process-wide; CLIs report per-run deltas via
// ReadCacheStats().Since.
var (
	cellsRequested   atomic.Int64
	cellsFromMemo    atomic.Int64
	cellsFromSegment atomic.Int64
	// lockWaits counts writer-lock acquisitions that found the lock held
	// and had to back off (once per acquisition, however many retries it
	// took) — the observable signal that processes are contending on one
	// cache directory. Incremented by acquireDirLock (fslock.go).
	lockWaits atomic.Int64
	// segIndexLoadNS accumulates wall time spent loading resident
	// segment indexes (sidecar read + decode + tail scans, ensureLoaded)
	// so a sidecar-load regression is a visible counter, not an inferred
	// wall-clock delta.
	segIndexLoadNS atomic.Int64
	// segBytesRead accumulates segment-store bytes read from disk:
	// sidecar loads, tail scans, and streaming run reads.
	segBytesRead atomic.Int64
)

// CacheStats is a snapshot of the process-wide cache counters: how many
// grid cells were requested through the caches, how many were served by
// the in-memory memo, how many from the segment file, how many experiments
// actually executed on a simulation engine, and how many writer-lock
// acquisitions had to wait behind another writer. For a fully warm
// request, EngineRuns is 0 and the memo/segment counters account
// for every requested cell; LockWaits is 0 whenever the process is the
// directory's only writer (warm runs never take the lock at all).
type CacheStats struct {
	CellsRequested   int64
	CellsFromMemo    int64
	CellsFromSegment int64
	EngineRuns       int64
	LockWaits        int64
	// IndexLoad is wall time spent loading resident segment indexes
	// (sidecar read + decode + tail scans). Zero for a process that
	// never opened a segment — in particular for a fully cold run.
	IndexLoad time.Duration
	// BytesRead is segment-store bytes read from disk: sidecar loads,
	// tail scans, streaming run reads.
	BytesRead int64
}

// ReadCacheStats returns the cumulative counters since process start.
func ReadCacheStats() CacheStats {
	return CacheStats{
		CellsRequested:   cellsRequested.Load(),
		CellsFromMemo:    cellsFromMemo.Load(),
		CellsFromSegment: cellsFromSegment.Load(),
		EngineRuns:       engineRuns.Load(),
		LockWaits:        lockWaits.Load(),
		IndexLoad:        time.Duration(segIndexLoadNS.Load()),
		BytesRead:        segBytesRead.Load(),
	}
}

// Since returns the counter deltas accumulated after prev — the usual
// way to attribute cache behavior to one run:
//
//	before := workload.ReadCacheStats()
//	...run a grid...
//	delta := workload.ReadCacheStats().Since(before)
func (s CacheStats) Since(prev CacheStats) CacheStats {
	return CacheStats{
		CellsRequested:   s.CellsRequested - prev.CellsRequested,
		CellsFromMemo:    s.CellsFromMemo - prev.CellsFromMemo,
		CellsFromSegment: s.CellsFromSegment - prev.CellsFromSegment,
		EngineRuns:       s.EngineRuns - prev.EngineRuns,
		LockWaits:        s.LockWaits - prev.LockWaits,
		IndexLoad:        s.IndexLoad - prev.IndexLoad,
		BytesRead:        s.BytesRead - prev.BytesRead,
	}
}

// String renders the stats in the stable machine-greppable form the
// CLIs print for -cache-stats (CI's subgrid-warm, segstore-warm and
// crash-safety gates match on "engine-runs=0" with the expected hit
// counters; index-load is the only nondeterministic field, so scripts
// match it with a pattern, not an exact string). disk=0 is a constant:
// the token once counted loose v1 per-cell files, and stays so the
// line's format — and every script matching it — is unchanged.
func (s CacheStats) String() string {
	return fmt.Sprintf("cells=%d memo=%d disk=0 segment=%d engine-runs=%d lock-waits=%d index-load=%s bytes-read=%d",
		s.CellsRequested, s.CellsFromMemo, s.CellsFromSegment, s.EngineRuns, s.LockWaits,
		s.IndexLoad, s.BytesRead)
}

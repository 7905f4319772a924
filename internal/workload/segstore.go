package workload

// The segment store: the cell store's on-disk format once grids pass
// ~10⁴ cells. The v1 layout — one JSON file per cell — collapses into
// filesystem-metadata overhead at that scale (10⁵ records means 10⁵
// opens, stats and inode walks per warm grid). v2 packs every cell
// record into ONE append-only segment file (`cells.seg`) with an
// in-memory index — fingerprint hash (segKey) → (offset, length) —
// loaded once per process from an atomic sidecar (`cells.idx`, binary
// fixed-layout since the sidecar rework: codec in binrecord.go), so a
// warm grid is one index load plus bounded-concurrency reads instead
// of a directory walk. Every read — a one-cell request or a 10⁵-cell
// open — goes through one path: loadStream streams the requested
// records in offset-sorted runs through pooled buffers.
//
// Layout of one segment record:
//
//	[4] magic "RSG2"
//	[4] payload length  (uint32 LE)
//	[4] CRC-32 (IEEE) of the payload
//	[n] payload: a fixed-layout binary row (binrecord.go: "RBC3"
//	    magic, fingerprint, little-endian SweepRow fields). Since the
//	    v4 bump this is the ONLY payload the store decodes: v2 JSON
//	    envelope payloads a pre-v3 process framed are dead space — the
//	    tail scan stops at them, an indexed one is a single-cell miss —
//	    and the cells they covered recompute.
//
// Robustness mirrors the v1 contract, record-granular: any defective
// record — bad magic, bad CRC, truncated tail, index entry pointing at
// the wrong bytes — is a miss for that cell only; the cell recomputes
// and re-appends. The index sidecar is advisory: it records the segment
// size it covers, and records appended after the last sidecar rewrite
// (e.g. a run that crashed before flushing) are recovered by scanning
// the tail. A missing or corrupt sidecar degrades to a full sequential
// scan, never an error.
//
// Compaction (CompactDiskCache, `ssslab -compact-cache`) folds dead
// segment space (records orphaned by corruption or superseded appends)
// out of a fresh segment + sidecar, written
// atomically (temp + rename; the sidecar is removed first so a crash
// mid-swap leaves a scannable segment, not a lying index).

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/fsfault"
)

const (
	// segmentFileName / segmentIndexName are the two store files under a
	// cache directory.
	segmentFileName  = "cells.seg"
	segmentIndexName = "cells.idx"

	// segMagic brands every record so the tail scan (and any reader
	// handed a bad offset) can tell records from garbage.
	segMagic = "RSG2"
	// segHeaderSize is magic + payload length + payload CRC.
	segHeaderSize = 12

	// segMaxRecord bounds a record's payload during scans and reads, so
	// a corrupt length field cannot ask for gigabytes.
	segMaxRecord = 64 << 20
)

// segEntry locates one record inside the segment file.
type segEntry struct {
	off    int64
	length int64 // whole record: header + payload
}

// segStore is the per-directory segment state: the in-memory index and
// the open file handles. One instance exists per cache directory per
// process (see segmentStore), so the index is loaded exactly once and
// appends from every cache instance serialize through one writer.
type segStore struct {
	mu     sync.Mutex
	dir    string
	loaded bool
	index  map[segKey]segEntry // fingerprint hash → record location
	size   int64               // logical append offset
	dirty  int                 // index changes since the last sidecar write
	gen    uint64              // bumped whenever the index is rebuilt or handles swap
	rf     *os.File            // shared ReadAt handle
	wf     *os.File            // O_APPEND writer, opened on first append
}

// segRegistry maps cache directory → its process-wide segStore.
var (
	segRegistryMu sync.Mutex
	segRegistry   = map[string]*segStore{}
)

// segmentStore returns the process-wide segment store for a directory,
// creating it (index unloaded) on first use.
func segmentStore(dir string) *segStore {
	segRegistryMu.Lock()
	defer segRegistryMu.Unlock()
	s, ok := segRegistry[dir]
	if !ok {
		s = &segStore{dir: dir}
		segRegistry[dir] = s
	}
	return s
}

// ResetSegmentStores closes every open segment store and drops the
// in-memory indexes, so the next access reloads from disk — the state a
// fresh process starts in. Benchmarks (cmd/benchjson's
// grid_segment_warm) and tests use it to measure true warm opens;
// production code never needs it.
func ResetSegmentStores() {
	segRegistryMu.Lock()
	defer segRegistryMu.Unlock()
	for _, s := range segRegistry {
		s.close()
	}
	segRegistry = map[string]*segStore{}
}

// resetSegmentStore drops one directory's store (PurgeDiskCache: the
// files are gone, the in-memory index must not outlive them).
func resetSegmentStore(dir string) {
	segRegistryMu.Lock()
	defer segRegistryMu.Unlock()
	if s, ok := segRegistry[dir]; ok {
		s.close()
		delete(segRegistry, dir)
	}
}

func (s *segStore) segPath() string { return filepath.Join(s.dir, segmentFileName) }
func (s *segStore) idxPath() string { return filepath.Join(s.dir, segmentIndexName) }

// close releases the file handles and clears the loaded state.
func (s *segStore) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeLocked()
}

// closeLocked is close for callers already holding s.mu.
func (s *segStore) closeLocked() {
	if s.rf != nil {
		s.rf.Close()
		s.rf = nil
	}
	if s.wf != nil {
		s.wf.Close()
		s.wf = nil
	}
	s.loaded = false
	s.index = nil
	s.size = 0
	s.dirty = 0
	s.gen++
}

// ensureLoaded loads the index once: sidecar first (if present, valid
// and version-tagged for this record generation — binrecord.go's
// decodeSidecar), then a sequential scan of any segment tail the
// sidecar does not cover. The whole load is timed into the process-wide
// IndexLoad counter so sidecar-load regressions show up in
// -cache-stats instead of hiding inside wall clock. Caller holds s.mu.
func (s *segStore) ensureLoaded() {
	if s.loaded {
		return
	}
	s.loaded = true
	// First open per process per directory: clear temp-file litter left
	// by crashed writers (age-guarded, so a live writer's in-flight
	// temps survive; compaction removes litter unconditionally).
	removeTempFiles(s.dir, staleTempMaxAge)
	s.index = make(map[segKey]segEntry)
	f, err := os.Open(s.segPath())
	if err != nil {
		return // no segment yet: empty store
	}
	start := time.Now()
	defer func() { segIndexLoadNS.Add(int64(time.Since(start))) }()
	s.rf = f
	st, err := f.Stat()
	if err != nil {
		return
	}
	fileSize := st.Size()
	scanFrom := int64(0)
	if data, err := os.ReadFile(s.idxPath()); err == nil {
		segBytesRead.Add(int64(len(data)))
		if cover, entries, ok := decodeSidecar(data); ok && cover <= fileSize {
			for _, ent := range entries {
				e := ent.e
				// Prune locations the segment cannot contain (truncated
				// segment, forged sidecar): they could only miss anyway.
				if e.off < 0 || e.length < segHeaderSize || e.off+e.length > fileSize {
					s.dirty++
					continue
				}
				s.index[ent.key] = e
			}
			scanFrom = cover
		}
	}
	if end := s.scanTail(scanFrom, fileSize); end == scanFrom && scanFrom > 0 && scanFrom < fileSize {
		// The sidecar's cover point is not a record boundary: a stale
		// sidecar (e.g. another process appended after this sidecar was
		// written and ours went stale) or a torn first tail record. The
		// framing cannot tell these apart, so rebuild by scanning the
		// whole file — it walks real record boundaries from offset 0 and
		// recovers everything recoverable. Never truncate here: bytes
		// the scan cannot frame may still be another writer's records
		// reachable through a newer sidecar; unreachable ones are dead
		// space for the next compaction.
		s.scanTail(0, fileSize)
		s.dirty++
	}
	// Appends go to the physical EOF (O_APPEND) wherever the scan
	// stopped; torn or foreign regions between the last framed record
	// and EOF stay as dead space rather than being destroyed.
	s.size = fileSize
}

// scanTail indexes records between offset from and fileSize — appends
// the sidecar has not seen. The first defective record (truncated tail
// after a crash, torn write) ends the scan; the cells beyond simply
// recompute and re-append, and the unreadable bytes wait for
// compaction. Returns the offset the scan reached.
func (s *segStore) scanTail(from, fileSize int64) int64 {
	off := from
	var read int64
	header := make([]byte, segHeaderSize)
	for off+segHeaderSize <= fileSize {
		if _, err := s.rf.ReadAt(header, off); err != nil {
			break
		}
		read += segHeaderSize
		if string(header[:4]) != segMagic {
			break
		}
		n := int64(binary.LittleEndian.Uint32(header[4:8]))
		if n <= 0 || n > segMaxRecord || off+segHeaderSize+n > fileSize {
			break
		}
		payload := make([]byte, n)
		if _, err := s.rf.ReadAt(payload, off+segHeaderSize); err != nil {
			break
		}
		read += n
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[8:12]) {
			break
		}
		key, ok := segPayloadKey(payload)
		if !ok {
			break
		}
		s.index[key] = segEntry{off: off, length: segHeaderSize + n}
		off += segHeaderSize + n
		s.dirty++
	}
	segBytesRead.Add(read)
	return off
}

// segPayloadKey returns the index key of one CRC-valid framed binary
// payload for scan-time indexing, or false for anything else (the scan
// stops there). Since the v4 bump only binary payloads are live: a v2
// JSON envelope a pre-v3 process left behind no longer indexes — it is
// dead space, and the cells it covered recompute (migration by
// recompute, per the ARCHITECTURE.md version-bump checklist).
func segPayloadKey(payload []byte) (segKey, bool) {
	fpBytes, ok := binRecordShape(payload)
	if !ok {
		return segKey{}, false
	}
	return bytesSegKey(fpBytes), true
}

// validFrame reports whether b is one whole segment record: the RSG2
// magic, a length word that matches len(b), and a payload CRC that
// matches the header's.
func validFrame(b []byte) bool {
	return len(b) >= segHeaderSize && string(b[:4]) == segMagic &&
		int(binary.LittleEndian.Uint32(b[4:8])) == len(b)-segHeaderSize &&
		crc32.ChecksumIEEE(b[segHeaderSize:]) == binary.LittleEndian.Uint32(b[8:12])
}

// drop removes a defective record's index entry — but only if the
// index generation is unchanged and the entry still is what the failed
// read observed. The ReadAt in loadStream runs outside the lock, so a
// concurrent compact (or ResetSegmentStores) may have failed that read
// by closing the handle and already replaced the entry with a valid
// relocated one; both guards together make an eviction of the new
// entry impossible (entries can relocate to identical coordinates, so
// comparing the entry alone would not be enough).
func (s *segStore) drop(key segKey, observed segEntry, gen uint64) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur == observed && s.gen == gen {
		delete(s.index, key)
		s.dirty++
	}
	s.mu.Unlock()
}

// dropKey unconditionally removes a key — for records that decoded
// successfully but are structurally foreign to their cell (the bytes
// themselves are bad wherever they live, so relocation cannot save
// them).
func (s *segStore) dropKey(key segKey) {
	s.mu.Lock()
	if _, ok := s.index[key]; ok {
		delete(s.index, key)
		s.dirty++
	}
	s.mu.Unlock()
}

// ── The read path ────────────────────────────────────────────────────

const (
	// segStreamSpan is the target span of one streaming read: requested
	// records within one span coalesce into a single ReadAt through a
	// pooled buffer.
	segStreamSpan = 1 << 20
	// segStreamGap is the largest dead-space hole a streaming run reads
	// through rather than splitting into a separate syscall (unrequested
	// records, corruption litter awaiting compaction).
	segStreamGap = 64 << 10
)

// segStreamBufPool recycles the run buffers behind loadStream — a
// 10⁵-cell open otherwise allocates tens of MB of transient spans. A
// buffer grows on demand to the run it serves (at most segStreamSpan,
// or one record if that is larger), so a one-cell request reads into a
// record-sized buffer, not a span-sized block.
var segStreamBufPool = sync.Pool{New: func() any { return new([]byte) }}

// loadStream is the store's one read path. It looks every fingerprint
// up in the index, sorts the found records by segment offset, groups
// them into sequential runs (≤segStreamSpan wide, reading through
// holes ≤segStreamGap), reads each run with a single ReadAt, and
// decodes the records on up to workers goroutines. A served record
// lands in rows[i] together with cells[i]; its row always carries
// TransferTimes (acceptRow). Every other slot stays the zero GridRow —
// a miss the caller executes.
//
// loadStream owns the miss policy. A record that fails its frame,
// length, CRC or decode check (or lies past the bytes a read returned:
// a truncated segment, or a read racing a compaction) gets the
// generation-guarded drop; one that decodes but does not belong to its
// cell gets dropKey. Either way the cell recomputes and re-appends.
// Distinct indices are written concurrently.
func (s *segStore) loadStream(fps []string, cells []GridCell, rows []GridRow, workers int) {
	type streamReq struct {
		i int
		e segEntry
	}
	s.mu.Lock()
	s.ensureLoaded()
	rf, gen := s.rf, s.gen
	var reqs []streamReq
	if rf != nil {
		reqs = make([]streamReq, 0, len(fps))
		for i, fp := range fps {
			key := fingerprintSegKey(fp)
			e, ok := s.index[key]
			switch {
			case !ok:
			case e.off < 0 || e.length < segHeaderSize || e.length > segHeaderSize+segMaxRecord:
				// A location no record can have (forged sidecar): drop
				// it now, under the lock the lookup already holds.
				delete(s.index, key)
				s.dirty++
			default:
				reqs = append(reqs, streamReq{i: i, e: e})
			}
		}
	}
	s.mu.Unlock()
	if len(reqs) == 0 {
		return
	}
	slices.SortFunc(reqs, func(a, b streamReq) int { return cmp.Compare(a.e.off, b.e.off) })
	// Group the offset-sorted requests into runs. A run always holds its
	// first record whole (records larger than segStreamSpan become
	// single-record runs); overlapping entries — only a forged sidecar
	// produces them — split runs rather than corrupting span arithmetic.
	type streamRun struct {
		lo, hi     int // reqs[lo:hi]
		start, end int64
	}
	runs := make([]streamRun, 0, len(reqs)/8+1)
	cur := streamRun{lo: 0, hi: 1, start: reqs[0].e.off, end: reqs[0].e.off + reqs[0].e.length}
	for k := 1; k < len(reqs); k++ {
		e := reqs[k].e
		if e.off >= cur.end && e.off-cur.end <= segStreamGap && e.off+e.length-cur.start <= segStreamSpan {
			cur.hi, cur.end = k+1, e.off+e.length
			continue
		}
		runs = append(runs, cur)
		cur = streamRun{lo: k, hi: k + 1, start: e.off, end: e.off + e.length}
	}
	runs = append(runs, cur)

	serve := func(r streamRun) {
		bufp := segStreamBufPool.Get().(*[]byte)
		if n := int(r.end - r.start); cap(*bufp) < n {
			*bufp = make([]byte, n)
		}
		buf := (*bufp)[:r.end-r.start]
		got, _ := rf.ReadAt(buf, r.start)
		segBytesRead.Add(int64(got))
		for _, q := range reqs[r.lo:r.hi] {
			lo := q.e.off - r.start
			row := &rows[q.i]
			// Decode before the buffer recycles: the decoder reads the
			// payload in place.
			if hi := lo + q.e.length; hi <= int64(got) && validFrame(buf[lo:hi]) &&
				decodeBinRecord(buf[lo+segHeaderSize:hi], fps[q.i], &row.SweepRow) {
				if acceptRow(row.SweepRow, cells[q.i]) {
					row.Cell = cells[q.i]
					continue
				}
				// Structurally foreign to its cell: the bytes are bad
				// wherever they live, so relocation cannot save them.
				*row = GridRow{}
				s.dropKey(fingerprintSegKey(fps[q.i]))
				continue
			}
			s.drop(fingerprintSegKey(fps[q.i]), q.e, gen)
		}
		segStreamBufPool.Put(bufp)
	}
	if workers = min(workers, len(runs)); workers <= 1 {
		for _, r := range runs {
			serve(r)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan streamRun)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				serve(r)
			}
		}()
	}
	for _, r := range runs {
		work <- r
	}
	close(work)
	wg.Wait()
}

// encodeSegRecord frames one cell record for the segment file: RSG2
// header + v3 binary payload, built in a single exactly-sized buffer.
func encodeSegRecord(fp string, row SweepRow) ([]byte, error) {
	n, err := binRecordSize(fp, row)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, segHeaderSize+n)
	copy(buf, segMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(n))
	encodeBinRecord(buf[segHeaderSize:], fp, row)
	binary.LittleEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(buf[segHeaderSize:]))
	return buf, nil
}

// reconcile folds into the in-memory state whatever other processes
// did to the segment since we last looked, and returns the segment's
// size as it saw it (0 when the segment is gone). Caller holds s.mu and
// the store is loaded.
//
//   - segment gone (foreign purge): reset to the empty store — our
//     handles point at an unlinked inode, and serving from it would
//     resurrect records the sibling deliberately destroyed;
//   - segment replaced (foreign compaction swapped a new inode in):
//     drop everything and reload from the new file;
//   - segment grew (foreign appends): index the new records by scanning
//     the gap, so our index — and any sidecar we later write — covers
//     every writer's records, not just our own.
//
// The scan advances s.size only past whole framed records. Without the
// directory writer lock the file is not quiescent: an unframeable tail
// may be a live writer's append still in flight, re-scanned by the next
// reconcile once its remaining bytes land. A caller holding the writer
// lock sees a quiescent file, so it advances s.size to the returned
// size itself: a torn tail there is a crashed writer's dead space.
func (s *segStore) reconcile() int64 {
	st, err := os.Stat(s.segPath())
	if err != nil {
		if s.rf != nil || s.wf != nil || len(s.index) > 0 {
			s.closeLocked()
			s.loaded = true
			s.index = make(map[segKey]segEntry)
		}
		return 0
	}
	var cur os.FileInfo
	if s.rf != nil {
		cur, _ = s.rf.Stat()
	} else if s.wf != nil {
		cur, _ = s.wf.Stat()
	}
	if cur != nil && !os.SameFile(st, cur) {
		// closeLocked clears loaded; ensureLoaded rebuilds index,
		// handles and size from the new segment.
		s.closeLocked()
		s.ensureLoaded()
		return s.size
	}
	if st.Size() > s.size {
		if s.rf == nil {
			s.rf, _ = os.Open(s.segPath())
		}
		if s.rf != nil {
			s.size = s.scanTail(s.size, st.Size())
		}
	}
	return st.Size()
}

// refresh runs reconcile for long-lived readers: a resident process
// (cmd/decided) calls it before planning a request so its in-memory
// index sees whatever sibling batch CLIs did to the shared directory —
// appends, compaction, purge — without restarting and without taking
// the writer lock (warm requests must stay lock-free; the whole
// reconcile is one stat on the fast path).
func (s *segStore) refresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// With nothing resident, the next load runs ensureLoaded anyway.
	if s.loaded {
		s.reconcile()
	}
}

// RefreshDiskCache re-synchronizes the process's resident segment index
// for dir with whatever sibling processes did to the directory since we
// last looked — the invalidation hook a long-lived server runs before
// serving each request. Lock-free and cheap: one stat when nothing
// changed, a tail scan or index reload when something did. dir ""
// (persistence off) is a no-op.
func RefreshDiskCache(dir string) {
	if dir == "" {
		return
	}
	segmentStore(dir).refresh()
}

// CloseDiskCache rewrites dir's segment index sidecar if this process
// changed the index since the last write, then releases the directory's
// resident store entirely: file handles closed, in-memory index freed,
// registry entry removed. This is the clean-shutdown hook for
// long-lived processes (cmd/decided) — without it a server that touched
// many cache directories over its lifetime keeps every index resident
// forever. A sidecar write failure is silent: the tail scan recovers
// everything the sidecar would have said. A later access to the same
// directory in the same process simply reloads from disk. dir "" is a
// no-op.
func CloseDiskCache(dir string) {
	if dir == "" {
		return
	}
	segmentStore(dir).flushIndex()
	resetSegmentStore(dir)
}

// pendingRec is one encoded record inside a batch buffer: its index key
// and its framed length.
type pendingRec struct {
	key  segKey
	size int
}

// appendBatch writes a batch of framed records — buf is their
// concatenation, recs their keys and lengths in order — to the segment
// in ONE write, under one hold of s.mu and of the directory's
// cross-process writer lock, and indexes every record that landed. The
// lock-held reconcile makes the index entries point where the records
// actually landed even when other processes append to the same
// directory. It returns how many leading records were committed: all
// of them, or after a short write of n bytes every whole record below
// n; the torn record's bytes are dead space (CRC-guarded, reclaimed by
// compaction) and the caller retries from it, so a torn batch costs
// only the torn record. The sidecar is NOT rewritten here — flushIndex
// does that once per grid run — so a crash between append and flush
// costs only a tail scan on the next open, never data.
func (s *segStore) appendBatch(buf []byte, recs []pendingRec) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLoaded()
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return 0, fmt.Errorf("workload: creating cache dir: %w", err)
	}
	lk, err := acquireDirLock(s.dir)
	if err != nil {
		return 0, err
	}
	defer lk.release()
	if size := s.reconcile(); size > s.size {
		s.size = size // quiescent under the writer lock: torn bytes are dead space
	}
	if s.wf == nil {
		wf, err := os.OpenFile(s.segPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 0, fmt.Errorf("workload: opening segment file: %w", err)
		}
		s.wf = wf
	}
	// Under the lock the reconciled counter IS the physical EOF, which is
	// where this O_APPEND write lands.
	off := s.size
	n, werr := fsfault.Write("segstore.append.write", s.wf, buf)
	if s.rf == nil {
		// The segment may not have existed when the index loaded; reads
		// need a handle now that it does. A failed open only costs
		// misses until the next process.
		s.rf, _ = os.Open(s.segPath())
	}
	done := 0
	for pos := 0; done < len(recs) && pos+recs[done].size <= n; done++ {
		s.index[recs[done].key] = segEntry{off: off + int64(pos), length: int64(recs[done].size)}
		pos += recs[done].size
	}
	s.dirty += done
	// Past the torn bytes too, so a retry indexes at the true EOF.
	s.size = off + int64(n)
	if werr != nil {
		return done, fmt.Errorf("workload: appending cell records: %w", werr)
	}
	return done, nil
}

// flushIndex rewrites the sidecar atomically if the index changed since
// the last write, under the directory writer lock so the sidecar's
// cover point and entries reflect a quiescent segment (the lock-held
// reconcile folds in any foreign appends first — a sidecar must never
// hide another writer's records below its cover point). Called once
// per grid run (runGridIncrementalStats), not per record. Failure —
// including failure to get the lock — is silent: the sidecar is an
// accelerator, and the tail scan recovers everything it would have
// said.
func (s *segStore) flushIndex() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.loaded || s.dirty == 0 {
		return
	}
	lk, err := acquireDirLock(s.dir)
	if err != nil {
		return
	}
	defer lk.release()
	if size := s.reconcile(); size > s.size {
		s.size = size // quiescent under the writer lock: torn bytes are dead space
	}
	if s.dirty == 0 {
		return // the reconcile replaced our state with an already-covered one
	}
	if s.writeSidecar() == nil {
		s.dirty = 0
	}
}

// writeSidecar writes the current index as the binary sidecar (temp +
// rename). Caller holds s.mu.
func (s *segStore) writeSidecar() error {
	data := encodeSidecar(s.size, s.index)
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.dir, ".idx-*.tmp")
	if err != nil {
		return err
	}
	if _, err := fsfault.Write("segstore.sidecar.write", tmp, data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := fsfault.Rename("segstore.sidecar.rename", tmp.Name(), s.idxPath()); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// CompactStats summarizes one compaction.
type CompactStats struct {
	// Records is the number of live records in the compacted segment.
	Records int
	// SegmentBytes is the compacted segment's size.
	SegmentBytes int64
	// ReclaimedBytes is the on-disk space freed: dead segment space.
	ReclaimedBytes int64
}

// CompactDiskCache rewrites a cache directory's segment store from its
// live contents: every readable segment record folds into a fresh
// segment + sidecar; dead segment space (corrupt or superseded
// records) and any temp files a crashed writer left behind are
// reclaimed. dir ""
// selects the default directory. A directory with no cache state
// compacts to nothing successfully.
func CompactDiskCache(dir string) (CompactStats, error) {
	if dir == "" {
		var err error
		if dir, err = DefaultDiskCacheDir(); err != nil {
			return CompactStats{}, err
		}
	}
	return segmentStore(dir).compact()
}

// compact is CompactDiskCache's engine; it holds the store mutex for
// the whole rewrite, so in-process appends and index lookups serialize
// around it, and the directory writer lock, so cross-process appenders
// queue (bounded by their lockTimeout) instead of appending to a
// segment that is about to be replaced. A stream whose ReadAt was already
// in flight (reads run outside both locks) fails against the closed old
// handle and reports a miss; its generation-guarded drop cannot evict
// the relocated entry, so the cost is one recompute, never a lost
// record.
func (s *segStore) compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ensureLoaded()

	var st CompactStats

	// A directory with nothing to compact — no indexed records — is a
	// successful no-op: compaction must not fabricate store files (or
	// the directory itself, or even the lock file) where no cache state
	// exists.
	if len(s.index) == 0 {
		removeTempFiles(s.dir, 0)
		return st, nil
	}

	lk, err := acquireDirLock(s.dir)
	if err != nil {
		return st, err
	}
	defer lk.release()
	// Fold in anything other processes appended since we last looked:
	// compaction rewrites the whole store, so its input must be every
	// writer's records, not just ours.
	if size := s.reconcile(); size > s.size {
		s.size = size // quiescent under the writer lock: torn bytes are dead space
	}

	oldSegBytes := int64(0)
	if fi, err := os.Stat(s.segPath()); err == nil {
		oldSegBytes = fi.Size()
	}

	// Stream straight into the temp segment: one record in memory at a
	// time, so compacting a 10⁵-cell store costs O(record), not
	// O(segment), of RSS. Temp + rename, with the sidecar removed
	// BEFORE the segment swaps in: a crash between the two leaves a
	// sidecar-less segment (full scan, correct) rather than a sidecar
	// describing the old segment's offsets.
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return st, fmt.Errorf("workload: compacting cache: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, ".seg-*.tmp")
	if err != nil {
		return st, fmt.Errorf("workload: compacting cache: %w", err)
	}
	newIndex := make(map[segKey]segEntry, len(s.index))
	var off int64

	// Live records only, deterministically ordered by key so two
	// compactions of the same state write identical segments. Only
	// shape-valid binary records are live since the v4 bump (a v2 JSON
	// payload never enters the index, so nothing folds it); they copy
	// verbatim, one record in memory at a time. A defective record is
	// skipped (dead space).
	keys := make([]segKey, 0, len(s.index))
	for key := range s.index {
		keys = append(keys, key)
	}
	// Byte order of the hash keys == lexical order of their old hex
	// renderings, so compacted segments keep the exact record order the
	// string-keyed store produced.
	slices.SortFunc(keys, func(a, b segKey) int { return bytes.Compare(a[:], b[:]) })
	for _, key := range keys {
		e := s.index[key]
		if s.rf == nil || e.length < segHeaderSize || e.length > segHeaderSize+segMaxRecord {
			continue
		}
		buf := make([]byte, e.length)
		if _, err := s.rf.ReadAt(buf, e.off); err != nil || !validFrame(buf) {
			continue
		}
		if _, ok := binRecordShape(buf[segHeaderSize:]); !ok {
			continue
		}
		if _, err := fsfault.Write("segstore.compact.write", tmp, buf); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return st, fmt.Errorf("workload: writing compacted segment: %w", err)
		}
		newIndex[key] = segEntry{off: off, length: e.length}
		off += e.length
	}

	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return st, fmt.Errorf("workload: writing compacted segment: %w", err)
	}
	// The sidecar goes away BEFORE the segment swaps: a crash (or an
	// injected failure) between the two leaves a sidecar-less segment —
	// full scan, correct — never a sidecar describing the old segment's
	// offsets. Mark the index dirty so a later flush can restore the
	// sidecar if the swap below never happens.
	s.dirty++
	os.Remove(s.idxPath())
	if err := fsfault.Rename("segstore.compact.rename", tmp.Name(), s.segPath()); err != nil {
		os.Remove(tmp.Name())
		return st, fmt.Errorf("workload: publishing compacted segment: %w", err)
	}

	// Swap the in-memory state over to the new segment. The generation
	// bump invalidates in-flight streams' drop attempts: their failed
	// reads (closed old handle) must not evict relocated entries, even
	// ones whose new coordinates happen to equal the old.
	if s.rf != nil {
		s.rf.Close()
	}
	if s.wf != nil {
		s.wf.Close()
		s.wf = nil
	}
	s.rf, _ = os.Open(s.segPath())
	s.index = newIndex
	s.size = off
	s.gen++
	s.dirty = 1
	if s.writeSidecar() == nil {
		s.dirty = 0
	}

	// Reclaim any temp files a crashed writer (or interrupted
	// compaction) left behind.
	removeTempFiles(s.dir, 0)

	st.Records = len(newIndex)
	st.SegmentBytes = off
	st.ReclaimedBytes = oldSegBytes - off
	if st.ReclaimedBytes < 0 {
		st.ReclaimedBytes = 0
	}
	return st, nil
}

// isSegmentTempName recognizes the store's temp files: segment and
// sidecar temps, plus the loose-file temps (.cell-) older builds wrote.
func isSegmentTempName(name string) bool {
	if !strings.HasSuffix(name, ".tmp") {
		return false
	}
	return strings.HasPrefix(name, ".cell-") || strings.HasPrefix(name, ".seg-") || strings.HasPrefix(name, ".idx-")
}

// staleTempMaxAge is how old a temp file must be before a normal store
// open removes it as crash litter. In-flight temps are seconds old
// (one sidecar or compaction write); an hour of age means the writer
// that owned it is long gone.
const staleTempMaxAge = time.Hour

// removeTempFiles deletes the store's temp files older than minAge from
// dir. Compaction and purge pass 0: they hold (or just invalidated) the
// store's state, so every temp there is crash litter. A normal store
// open passes staleTempMaxAge, because another LIVE writer's in-flight
// temp may be sitting in the directory right now and deleting it would
// fail that writer's rename.
func removeTempFiles(dir string, minAge time.Duration) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if ent.IsDir() || !isSegmentTempName(ent.Name()) {
			continue
		}
		if minAge > 0 {
			if info, err := ent.Info(); err != nil || time.Since(info.ModTime()) <= minAge {
				continue
			}
		}
		os.Remove(filepath.Join(dir, ent.Name()))
	}
}

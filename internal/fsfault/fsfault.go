// Package fsfault is a deterministic filesystem fault-injection layer
// for the workload cache stack. Store code routes its writes and
// renames through named failpoints (fsfault.Write, fsfault.Rename,
// fsfault.Hit); tests arm a failpoint with a Fault describing exactly
// when and how it misbehaves — short write, ENOSPC, EIO, rename
// failure, or kill-at-offset — so every recovery path (torn append,
// stale sidecar, mid-compaction crash) is exercised deterministically
// instead of by luck.
//
// Disarmed, the layer costs one atomic load per instrumented call; no
// failpoint sits on the warm read path, so warm-grid benchmarks never
// touch it at all.
//
// Re-exec'd child processes (the multi-process torture tests,
// scripts/crashcheck.sh) arm failpoints through the FSFAULT environment
// variable instead of the API:
//
//	FSFAULT="segstore.append.write=kill@20000"
//	FSFAULT="segstore.append.write=eio@0,once;segstore.sidecar.rename=fail@0"
//
// Each clause is point=kind@N[,once], where N is the byte offset
// (write points) or call count (call points) allowed through before
// the fault fires, and kind is one of kill, eio, enospc, short, fail.
package fsfault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Injected errors. Plain sentinels (not syscall errnos) so they are
// portable and unmistakably synthetic in logs and test failures.
var (
	// ErrInjectedEIO stands in for a transient device I/O error.
	ErrInjectedEIO = errors.New("fsfault: injected I/O error")
	// ErrInjectedENOSPC stands in for "no space left on device".
	ErrInjectedENOSPC = errors.New("fsfault: injected ENOSPC")
	// ErrInjectedFailure is the generic injected error for call points
	// (renames, lock acquisition).
	ErrInjectedFailure = errors.New("fsfault: injected failure")
)

// KillExitCode is the exit status of a process terminated by a kill
// fault — distinguishable from both success and ordinary test failure,
// so parent processes can assert the fault actually fired.
const KillExitCode = 86

// Fault describes one armed failpoint.
type Fault struct {
	// AllowBytes is how many bytes a write point lets through
	// (cumulatively, across calls) before the fault fires. The firing
	// write writes the allowed prefix first, so a mid-record threshold
	// produces a genuinely torn record on disk.
	AllowBytes int64
	// AllowCalls is how many calls a call point (rename, lock) lets
	// through before the fault fires.
	AllowCalls int
	// Err is the error injected when the fault fires. Defaults to
	// ErrInjectedFailure. Ignored when Kill is set.
	Err error
	// Kill terminates the process (exit status KillExitCode) when the
	// fault fires, after syncing any partial write — the deterministic
	// stand-in for SIGKILL at a byte offset.
	Kill bool
	// Once disarms the failpoint after its first firing, so a retry of
	// the failed operation succeeds (transient-fault simulation).
	Once bool
}

type state struct {
	f     Fault
	bytes int64 // bytes already allowed through
	calls int   // calls already allowed through
	fired int
}

var (
	mu     sync.Mutex
	armed  atomic.Int32 // number of armed points: fast-path gate
	points = map[string]*state{}
)

// Enable arms a failpoint. Re-arming an armed point replaces it and
// resets its progress counters.
func Enable(point string, f Fault) {
	if f.Err == nil {
		f.Err = ErrInjectedFailure
	}
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[point]; !ok {
		armed.Add(1)
	}
	points[point] = &state{f: f}
}

// Reset disarms every failpoint.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*state{}
	armed.Store(0)
}

// Fired reports how many times the point's fault has fired — tests use
// it to assert the exercised path actually hit the failpoint.
func Fired(point string) int {
	mu.Lock()
	defer mu.Unlock()
	if st, ok := points[point]; ok {
		return st.fired
	}
	return 0
}

// fire marks the fault fired and handles Once/Kill bookkeeping. Caller
// holds mu; kill happens after mu is released (the sync must run
// first, outside the registry lock, via the returned flag).
func (st *state) fire() (kill bool) {
	st.fired++
	if st.f.Once && !st.f.Kill {
		// Leave the state registered (Fired stays observable) but
		// inert: a fired Once fault never fires again.
		st.f.AllowBytes = -1
		st.f.AllowCalls = -1
	}
	return st.f.Kill
}

// inert reports whether a Once fault has already fired.
func (st *state) inert() bool { return st.f.AllowBytes < 0 || st.f.AllowCalls < 0 }

// kill terminates the process, syncing f first (when non-nil) so bytes
// already written survive the crash the way an fsync'd prefix survives
// SIGKILL.
func kill(f *os.File) {
	if f != nil {
		f.Sync()
	}
	os.Exit(KillExitCode)
}

// Write writes p to w through a write failpoint. Disarmed (or for a
// foreign point) it is w.Write(p). Armed, once the point's cumulative
// allowance is exhausted it writes only the allowed prefix and then
// fires: returning the injected error (short write, ENOSPC, EIO), or
// killing the process at that exact byte offset.
func Write(point string, w io.Writer, p []byte) (int, error) {
	if armed.Load() == 0 {
		return w.Write(p)
	}
	mu.Lock()
	st, ok := points[point]
	if !ok || st.inert() {
		mu.Unlock()
		return w.Write(p)
	}
	remain := st.f.AllowBytes - st.bytes
	if remain >= int64(len(p)) {
		st.bytes += int64(len(p))
		mu.Unlock()
		return w.Write(p)
	}
	if remain < 0 {
		remain = 0
	}
	st.bytes = st.f.AllowBytes
	doKill := st.fire()
	err := st.f.Err
	mu.Unlock()

	n := 0
	if remain > 0 {
		n, _ = w.Write(p[:remain])
	}
	if doKill {
		f, _ := w.(*os.File)
		kill(f)
	}
	return n, err
}

// Hit consults a call-based failpoint (renames, lock acquisition):
// disarmed it returns nil; armed it returns the injected error — or
// kills the process — once the point's call allowance is exhausted.
func Hit(point string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	st, ok := points[point]
	if !ok || st.inert() {
		mu.Unlock()
		return nil
	}
	if st.calls < st.f.AllowCalls {
		st.calls++
		mu.Unlock()
		return nil
	}
	doKill := st.fire()
	err := st.f.Err
	mu.Unlock()
	if doKill {
		kill(nil)
	}
	return err
}

// Rename is os.Rename routed through a call failpoint: an armed fault
// fires before the rename, so the destination is never touched.
func Rename(point, oldpath, newpath string) error {
	if err := Hit(point); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

// envVar arms failpoints in freshly exec'd processes — the only way a
// child that will be crashed mid-write can be configured.
const envVar = "FSFAULT"

func init() {
	if spec := os.Getenv(envVar); spec != "" {
		if err := armFromSpec(spec); err != nil {
			fmt.Fprintf(os.Stderr, "fsfault: bad %s: %v\n", envVar, err)
			os.Exit(2)
		}
	}
}

// armFromSpec parses "point=kind@N[,once][;point2=...]" and arms each
// clause. Split out of init for tests.
func armFromSpec(spec string) error {
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		point, rest, ok := strings.Cut(clause, "=")
		if !ok || point == "" {
			return fmt.Errorf("clause %q: want point=kind@N", clause)
		}
		var once bool
		if r, found := strings.CutSuffix(rest, ",once"); found {
			rest, once = r, true
		}
		kind, nStr, ok := strings.Cut(rest, "@")
		if !ok {
			return fmt.Errorf("clause %q: want point=kind@N", clause)
		}
		n, err := strconv.ParseInt(nStr, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("clause %q: bad threshold %q", clause, nStr)
		}
		f := Fault{AllowBytes: n, AllowCalls: int(n), Once: once}
		switch kind {
		case "kill":
			f.Kill = true
		case "eio":
			f.Err = ErrInjectedEIO
		case "enospc":
			f.Err = ErrInjectedENOSPC
		case "short":
			f.Err = io.ErrShortWrite
		case "fail":
			f.Err = ErrInjectedFailure
		default:
			return fmt.Errorf("clause %q: unknown fault kind %q", clause, kind)
		}
		Enable(point, f)
	}
	return nil
}

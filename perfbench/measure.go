package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// summary is the latency distribution of one run's ops.
type summary struct {
	n   int
	p50 time.Duration
	p90 time.Duration
	// tailOK reports whether at least minTail samples lie beyond p90. When
	// it is false p90 is not reported and the run is flagged.
	tailOK bool
}

// summarize applies the percentile rule: the median always, p90 only when
// at least minTail samples lie beyond it. Percentiles are nearest-rank.
func summarize(samples []time.Duration) summary {
	s := summary{n: len(samples)}
	if s.n == 0 {
		return s
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.p50 = sorted[rank(s.n, 0.50)]
	i90 := rank(s.n, 0.90)
	s.p90 = sorted[i90]
	s.tailOK = s.n-1-i90 >= minTail
	return s
}

// rank is the zero-based nearest-rank index of quantile q among n samples.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; 100 on every
// Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU is another process's user+sys time, read from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// resetPeakRSS starts a new peak-RSS window for pid by
// writing 5 to its clear_refs. It reports whether the kernel accepted it;
// when not, peakRSS covers the whole process lifetime.
func resetPeakRSS(pid int) bool {
	return os.WriteFile(procPath(pid, "clear_refs"), []byte("5"), 0) == nil
}

// peakRSS is VmHWM of pid in MiB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", procPath(pid, "status"))
}

func procPath(pid int, name string) string { return fmt.Sprintf("/proc/%d/%s", pid, name) }

// fsType names the filesystem holding path, for the run's info line.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

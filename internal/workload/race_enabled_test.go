//go:build race

package workload

// raceEnabled reports a -race build: sync.Pool drops a share of its
// Puts on purpose under the race detector, so allocation counts that
// rely on pooled buffers are not meaningful there.
const raceEnabled = true

//go:build !race

package workload

// raceEnabled reports a -race build (see race_enabled_test.go).
const raceEnabled = false

// Package trace records per-transfer measurements — the paper's
// "application-level performance indicators (detailed transfer time logs
// per client)" — and writes them as CSV so runs can be archived and
// re-analyzed.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/stats"
)

// Transfer is one client transfer observation.
type Transfer struct {
	// ClientID identifies the client within the experiment.
	ClientID int
	// Flows is the number of parallel TCP flows the client used.
	Flows int
	// Bytes is the total payload moved by the client.
	Bytes float64
	// Start is the client spawn time, seconds since experiment start.
	Start float64
	// End is the completion time, seconds since experiment start.
	End float64
	// Retransmits counts retransmitted segments across the client's flows
	// (0 when the transport does not expose it).
	Retransmits int64
}

// Duration returns the transfer completion time in seconds.
func (t Transfer) Duration() float64 { return t.End - t.Start }

// Log is an append-only collection of transfers. The zero value is an
// empty log.
type Log struct {
	// Transfers holds the per-client records.
	Transfers []Transfer
}

// Add appends a transfer record.
func (l *Log) Add(t Transfer) { l.Transfers = append(l.Transfers, t) }

// Durations returns all transfer durations as a stats.Sample.
func (l *Log) Durations() *stats.Sample {
	s := &stats.Sample{}
	for _, t := range l.Transfers {
		s.Add(t.Duration())
	}
	return s
}

// MaxDuration returns the worst-case transfer duration — the paper's
// T_worst estimator.
func (l *Log) MaxDuration() (float64, error) {
	if len(l.Transfers) == 0 {
		return 0, errors.New("trace: empty log")
	}
	return l.Durations().Max()
}

var csvHeader = []string{"client_id", "flows", "bytes", "start_s", "end_s", "retransmits"}

// WriteCSV writes the transfer records as CSV.
func (l *Log) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	for _, t := range l.Transfers {
		rec := []string{
			strconv.Itoa(t.ClientID),
			strconv.Itoa(t.Flows),
			strconv.FormatFloat(t.Bytes, 'g', -1, 64),
			strconv.FormatFloat(t.Start, 'g', -1, 64),
			strconv.FormatFloat(t.End, 'g', -1, 64),
			strconv.FormatInt(t.Retransmits, 10),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: writing CSV row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: flushing CSV: %w", err)
	}
	return nil
}

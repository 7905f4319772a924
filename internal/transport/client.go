package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/units"
)

// ClientConfig describes one load-generator client: the analogue of one
// iperf3 invocation with -P parallel flows.
type ClientConfig struct {
	// Flows is the number of parallel TCP connections (the paper's P).
	Flows int
	// Bytes is the client's total payload, split evenly across flows.
	Bytes units.ByteSize
	// ChunkSize is the write granularity (default 256 KiB).
	ChunkSize int
	// Timeout bounds the whole client transfer (default 30 s).
	Timeout time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 256 * 1024
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Validate checks the client parameters.
func (c ClientConfig) Validate() error {
	if c.Flows <= 0 {
		return fmt.Errorf("transport: flows must be > 0, got %d", c.Flows)
	}
	if c.Bytes <= 0 {
		return fmt.Errorf("transport: bytes must be > 0, got %v", c.Bytes)
	}
	return nil
}

// ClientResult is one completed client transfer.
type ClientResult struct {
	// Duration is the wall time from first dial to last ack.
	Duration time.Duration
	// Bytes is the acknowledged payload total.
	Bytes int64
	// FlowDurations holds each parallel flow's completion time.
	FlowDurations []time.Duration
}

// Throughput returns the achieved rate.
func (r ClientResult) Throughput() units.ByteRate {
	if r.Duration <= 0 {
		return 0
	}
	return units.ByteRate(float64(r.Bytes) / r.Duration.Seconds())
}

// RunClient moves cfg.Bytes to addr over cfg.Flows parallel connections
// and reports the completion time (the max across flows, as the paper
// measures per-client transfer time).
func RunClient(addr string, cfg ClientConfig) (ClientResult, error) {
	if err := cfg.Validate(); err != nil {
		return ClientResult{}, err
	}
	cfg = cfg.withDefaults()
	perFlow := uint64(cfg.Bytes.Bytes()) / uint64(cfg.Flows)
	if perFlow == 0 {
		perFlow = 1
	}

	start := time.Now()
	deadline := start.Add(cfg.Timeout)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
		total   int64
		durs    = make([]time.Duration, cfg.Flows)
	)
	for i := 0; i < cfg.Flows; i++ {
		wg.Add(1)
		go func(flow int) {
			defer wg.Done()
			n, err := runFlow(addr, uint32(flow), perFlow, cfg.ChunkSize, deadline)
			mu.Lock()
			defer mu.Unlock()
			durs[flow] = time.Since(start)
			total += n
			if err != nil && firstEr == nil {
				firstEr = fmt.Errorf("transport: flow %d: %w", flow, err)
			}
		}(i)
	}
	wg.Wait()
	if firstEr != nil {
		return ClientResult{}, firstEr
	}
	res := ClientResult{Bytes: total, FlowDurations: durs}
	for _, d := range durs {
		if d > res.Duration {
			res.Duration = d
		}
	}
	return res, nil
}

// runFlow moves length bytes over one connection and waits for the ack.
func runFlow(addr string, id uint32, length uint64, chunk int, deadline time.Time) (int64, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return 0, fmt.Errorf("dialing %s: %w", addr, err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(deadline); err != nil {
		return 0, fmt.Errorf("setting deadline: %w", err)
	}
	if err := writeHeader(conn, header{Magic: Magic, FlowID: id, Length: length}); err != nil {
		return 0, fmt.Errorf("writing header: %w", err)
	}
	buf := make([]byte, chunk)
	var sent uint64
	for sent < length {
		n := uint64(len(buf))
		if length-sent < n {
			n = length - sent
		}
		w, err := conn.Write(buf[:n])
		sent += uint64(w)
		if err != nil {
			return int64(sent), fmt.Errorf("writing payload at %d/%d: %w", sent, length, err)
		}
	}
	var ack [8]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return int64(sent), fmt.Errorf("reading ack: %w", err)
	}
	got := binary.BigEndian.Uint64(ack[:])
	if got != length {
		return int64(sent), fmt.Errorf("server acked %d of %d bytes", got, length)
	}
	return int64(got), nil
}

// LoadStrategy selects client spawning for live load generation.
type LoadStrategy int

// Live spawning strategies, mirroring the simulated workload package.
const (
	// LoadSimultaneous spawns each second's clients at the same instant.
	LoadSimultaneous LoadStrategy = iota
	// LoadScheduled spreads clients evenly within each second.
	LoadScheduled
)

// LoadConfig drives a live multi-client experiment.
type LoadConfig struct {
	// Seconds is how many spawn rounds to run.
	Seconds int
	// Concurrency is clients per second.
	Concurrency int
	// Client configures each client.
	Client ClientConfig
	// Strategy selects spawn timing.
	Strategy LoadStrategy
}

// Validate checks the load parameters.
func (c LoadConfig) Validate() error {
	if c.Seconds <= 0 {
		return fmt.Errorf("transport: seconds must be > 0, got %d", c.Seconds)
	}
	if c.Concurrency <= 0 {
		return fmt.Errorf("transport: concurrency must be > 0, got %d", c.Concurrency)
	}
	return c.Client.Validate()
}

// RunLoad executes the live experiment against the server group,
// assigning clients to servers round-robin, and returns a trace log of
// per-client transfer times. It blocks until every client finishes.
func RunLoad(g *ServerGroup, cfg LoadConfig) (*trace.Log, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	addrs := g.Addrs()
	if len(addrs) == 0 {
		return nil, ErrClosed
	}

	type outcome struct {
		id    int
		spawn time.Duration
		res   ClientResult
		err   error
	}
	total := cfg.Seconds * cfg.Concurrency
	outcomes := make(chan outcome, total)
	var wg sync.WaitGroup
	epoch := time.Now()

	spawn := func(id int, at time.Duration) {
		defer wg.Done()
		time.Sleep(time.Until(epoch.Add(at)))
		res, err := RunClient(addrs[id%len(addrs)], cfg.Client)
		outcomes <- outcome{id: id, spawn: at, res: res, err: err}
	}

	id := 0
	for sec := 0; sec < cfg.Seconds; sec++ {
		for k := 0; k < cfg.Concurrency; k++ {
			var at time.Duration
			switch cfg.Strategy {
			case LoadSimultaneous:
				at = time.Duration(sec) * time.Second
			case LoadScheduled:
				at = time.Duration(sec)*time.Second +
					time.Duration(k)*time.Second/time.Duration(cfg.Concurrency)
			default:
				return nil, fmt.Errorf("transport: unknown strategy %d", int(cfg.Strategy))
			}
			wg.Add(1)
			go spawn(id, at)
			id++
		}
	}
	wg.Wait()
	close(outcomes)

	log := &trace.Log{}
	for o := range outcomes {
		if o.err != nil {
			return nil, fmt.Errorf("transport: client %d: %w", o.id, o.err)
		}
		log.Add(trace.Transfer{
			ClientID: o.id,
			Flows:    cfg.Client.Flows,
			Bytes:    float64(o.res.Bytes),
			Start:    o.spawn.Seconds(),
			End:      o.spawn.Seconds() + o.res.Duration.Seconds(),
		})
	}
	return log, nil
}

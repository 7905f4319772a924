package transport

import (
	"bytes"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/units"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := header{Magic: Magic, FlowID: 7, Length: 123456}
	if err := writeHeader(&buf, in); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != headerSize {
		t.Fatalf("header size = %d", buf.Len())
	}
	out, err := readHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestHeaderBadMagic(t *testing.T) {
	var buf bytes.Buffer
	_ = writeHeader(&buf, header{Magic: 0xDEAD, FlowID: 1, Length: 1})
	if _, err := readHeader(&buf); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestListenServersValidation(t *testing.T) {
	if _, err := ListenServers(0); err == nil {
		t.Fatal("zero servers accepted")
	}
}

func TestServerGroupLifecycle(t *testing.T) {
	g, err := ListenServers(3)
	if err != nil {
		t.Fatal(err)
	}
	addrs := g.Addrs()
	if len(addrs) != 3 {
		t.Fatalf("addrs = %v", addrs)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate addr %s", a)
		}
		seen[a] = true
		if _, _, err := net.SplitHostPort(a); err != nil {
			t.Fatalf("bad addr %s: %v", a, err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != ErrClosed {
		t.Fatalf("double close = %v", err)
	}
}

func TestRunClientSmallTransfer(t *testing.T) {
	g, err := ListenServers(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	cfg := ClientConfig{Flows: 4, Bytes: 4 * units.MB}
	res, err := RunClient(g.Addrs()[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 4*1000*1000 {
		t.Fatalf("acked bytes = %d", res.Bytes)
	}
	if res.Duration <= 0 {
		t.Fatal("non-positive duration")
	}
	if len(res.FlowDurations) != 4 {
		t.Fatalf("flow durations = %d", len(res.FlowDurations))
	}
	for _, d := range res.FlowDurations {
		if d > res.Duration {
			t.Fatal("client duration must be the max across flows")
		}
	}
	if res.Throughput() <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestRunClientValidation(t *testing.T) {
	if _, err := RunClient("127.0.0.1:1", ClientConfig{Flows: 0, Bytes: units.MB}); err == nil {
		t.Error("zero flows accepted")
	}
	if _, err := RunClient("127.0.0.1:1", ClientConfig{Flows: 1, Bytes: 0}); err == nil {
		t.Error("zero bytes accepted")
	}
}

func TestRunClientConnectionRefused(t *testing.T) {
	// Dial a port with no listener: must error out, not hang.
	cfg := ClientConfig{Flows: 1, Bytes: units.KB, Timeout: 2 * time.Second}
	if _, err := RunClient("127.0.0.1:1", cfg); err == nil {
		t.Fatal("expected connection error")
	}
}

func TestRunLoadSimultaneous(t *testing.T) {
	g, err := ListenServers(4)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	cfg := LoadConfig{
		Seconds:     1,
		Concurrency: 4,
		Client:      ClientConfig{Flows: 2, Bytes: units.MB},
		Strategy:    LoadSimultaneous,
	}
	log, err := RunLoad(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Transfers) != 4 {
		t.Fatalf("transfers = %d", len(log.Transfers))
	}
	if log.Meta["strategy"] != "simultaneous" {
		t.Errorf("meta = %v", log.Meta)
	}
	max, err := log.MaxDuration()
	if err != nil || max <= 0 {
		t.Fatalf("max duration = %v, %v", max, err)
	}
}

func TestRunLoadScheduledSpreadsSpawns(t *testing.T) {
	g, err := ListenServers(2)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	cfg := LoadConfig{
		Seconds:     1,
		Concurrency: 2,
		Client:      ClientConfig{Flows: 1, Bytes: 256 * units.KB},
		Strategy:    LoadScheduled,
	}
	log, err := RunLoad(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sort.SliceStable(log.Transfers, func(i, j int) bool {
		return log.Transfers[i].Start < log.Transfers[j].Start
	})
	if log.Transfers[0].Start == log.Transfers[1].Start {
		t.Fatal("scheduled spawns should differ")
	}
	if diff := log.Transfers[1].Start - log.Transfers[0].Start; diff < 0.4 || diff > 0.6 {
		t.Fatalf("spawn spacing = %v, want ~0.5", diff)
	}
}

func TestRunLoadValidation(t *testing.T) {
	g, err := ListenServers(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	bad := []LoadConfig{
		{Seconds: 0, Concurrency: 1, Client: ClientConfig{Flows: 1, Bytes: 1}},
		{Seconds: 1, Concurrency: 0, Client: ClientConfig{Flows: 1, Bytes: 1}},
		{Seconds: 1, Concurrency: 1, Client: ClientConfig{Flows: 0, Bytes: 1}},
	}
	for i, cfg := range bad {
		if _, err := RunLoad(g, cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	unknown := LoadConfig{Seconds: 1, Concurrency: 1, Client: ClientConfig{Flows: 1, Bytes: 1}, Strategy: LoadStrategy(9)}
	if _, err := RunLoad(g, unknown); err == nil {
		t.Error("unknown strategy accepted")
	}
}

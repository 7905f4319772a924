// Command decided serves the paper's stream-or-store decision over
// HTTP/JSON from resident state: the grid memo and the segment-store
// index stay loaded for the process lifetime, so a warm cell answers in
// microseconds with zero simulations and concurrent cold requests for
// the same cell coalesce into one engine run.
//
// Usage:
//
//	decided [-listen 127.0.0.1:8414] [-cache-dir DIR|off]
//	        [-max-inflight 4] [-cache-stats]
//
// Endpoints:
//
//	POST /v1/decide     one workload → stream/store verdict; model-only
//	                    (the workload carries its own transfer side) or
//	                    at one measured grid cell ("cell" spec)
//	POST /v1/portfolio  portfolio × grid → the PortfolioGrid JSON
//	                    archive, byte-identical to streamdecide -json
//	GET  /v1/stats      uptime, request counts, cache-counter delta
//	GET  /healthz       liveness
//
// The cache directory is shared with the batch CLIs (same default
// resolution: -cache-dir, else $CACHE_DIR, else ~/.cache/repro/sweeps):
// cells ssslab or streamdecide computed serve warm here and vice versa,
// and the server follows sibling compactions and purges without a
// restart. On SIGINT/SIGTERM the server drains in-flight requests —
// including their engine runs — flushes the segment index sidecar, and,
// with -cache-stats, prints the same cache-stats line the grid CLIs
// print. -compact-cache runs the shared standalone maintenance mode
// instead of serving.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "decided:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until ctx is canceled (the signal path)
// or the listener fails; tests drive it with their own context.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("decided", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8414", "TCP address to serve on (port 0 picks a free port)")
	cacheDir := fs.String("cache-dir", "",
		"sweep disk cache directory (default $CACHE_DIR, else ~/.cache/repro/sweeps; \"off\" disables)")
	maxInflight := fs.Int("max-inflight", 4, "max requests running simulations at once")
	cacheStats := fs.Bool("cache-stats", false,
		"on shutdown, report cells requested / from memo / from disk / from segment / engine runs / writer-lock waits")
	compactCache := fs.Bool("compact-cache", false,
		"compact the cell store (rewrite the segment file without its dead space), then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compactCache {
		// Refuse every run-shaped flag rather than silently dropping it
		// — the contract the grid CLIs follow.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if err := scenario.CompactCacheConflicts("decided", []scenario.RunFlag{
			{Name: "-listen", Set: set["listen"]},
			{Name: "-max-inflight", Set: set["max-inflight"]},
			{Name: "-cache-stats", Set: *cacheStats},
		}); err != nil {
			return err
		}
		return scenario.RunCompactCache(out, *cacheDir)
	}

	dir, err := workload.ResolveCacheDir(*cacheDir)
	if err != nil {
		return err
	}
	before := workload.ReadCacheStats()
	svc := service.New(service.Config{CacheDir: dir, MaxInflight: *maxInflight})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// The address line is the startup handshake: harnesses pass port 0
	// and parse the bound address from here.
	fmt.Fprintf(out, "decided: listening on http://%s\n", ln.Addr())
	if dir == "" {
		fmt.Fprintln(out, "decided: cache persistence off; cold cells recompute after every restart")
	} else {
		fmt.Fprintf(out, "decided: cache dir %s (shared with ssslab/streamdecide)\n", dir)
	}

	hs := &http.Server{Handler: svc, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight handlers — and the
	// engine runs they hold — finish, then close the cache cleanly:
	// flush the index sidecar (so the next process starts from a
	// covering sidecar instead of a tail scan) and release the resident
	// segment store — file handle, in-memory index, registry entry.
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("draining: %w", err)
	}
	workload.CloseDiskCache(dir)
	if *cacheStats {
		fmt.Fprintf(out, "cache-stats: %s\n", workload.ReadCacheStats().Since(before))
	}
	return nil
}

// Command addsd serves the path-matrix analysis as a long-lived daemon:
// POST a mini source to /v1/analyze or /v1/pipeline and get the same JSON
// the addsc -format json CLI prints. Results are content-addressed — keyed
// by source, options, and engine version — so repeated and concurrent
// identical requests are answered from cache or coalesced into one run.
//
// Usage:
//
//	addsd -addr :7117
//	curl -s localhost:7117/healthz
//	jq -Rs '{source: .}' prog.mini | curl -s -d @- localhost:7117/v1/analyze
//	curl -s localhost:7117/v1/oracles     # the alias-oracle registry
//
// Concurrent identical requests coalesce onto one detached computation
// whose lifetime is independent of any single client: a disconnecting
// client never fails its coalesced peers. Under overload, a bounded
// admission queue sheds excess requests with 429 + Retry-After instead of
// stacking goroutines.
//
// Cluster mode: give every process the same -peers list and each request's
// content-addressed key picks exactly one owning shard on a consistent-hash
// ring. Non-owners peek the owner's cache (GET /v1/cache/{key}), forward
// misses to the owner, and fall back to local analysis if the owner is
// unreachable — so a 3-process cluster answers byte-identically to one
// process while each key is computed and cached on one shard:
//
//	addsd -addr :7201 -peers 127.0.0.1:7201,127.0.0.1:7202,127.0.0.1:7203
//
// Observability: GET /metrics (Prometheus text format, including per-phase
// duration histograms), GET /healthz, GET /debug/trace/{id} (recent traces;
// send a W3C traceparent header to pick the trace id), one structured
// access-log line per request on stderr (-log-format json by default), and
// the standard /debug/pprof endpoints.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is the whole daemon, factored out so tests can drive it in-process.
// When ready is non-nil it receives the bound address once the listener is
// up (tests pass -addr 127.0.0.1:0 and read the real port from it).
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("addsd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7117", "listen address")
	cacheEntries := fs.Int("cache", 512, "maximum cached results")
	var workers int
	fs.IntVar(&workers, "workers", 0, "concurrent analyses (0 = one per CPU)")
	fs.IntVar(&workers, "par", 0, "alias for -workers (the shared adds spelling)")
	queue := fs.Int("queue", 0, "analyses queued for a worker before shedding with 429 (0 = 4x workers, negative = no queue)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-analysis budget (bounds the shared flight, not one client's wait)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace period for in-flight requests")
	traceRing := fs.Int("trace-ring", obs.DefaultRingSize, "finished traces kept for /debug/trace/{id}")
	peers := fs.String("peers", "", "comma-separated addresses of every cluster member (including this one); empty = single process")
	self := fs.String("self", "", "this process's address as it appears in -peers (default: -addr)")
	peerTimeout := fs.Duration("peer-timeout", cluster.DefaultPeerTimeout, "per-attempt budget for peer cache peeks and forwards")
	maxBody := fs.Int64("max-body", service.DefaultMaxBodyBytes, "largest accepted request body in bytes (oversized = 413)")
	maxBatch := fs.Int("max-batch", service.DefaultMaxBatchItems, "most items accepted in one /v1/batch request")
	lf := cli.RegisterLogFlags(fs, "json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: addsd [flags]")
		fs.Usage()
		return 2
	}
	logger, err := lf.Logger(stderr)
	if err != nil {
		fmt.Fprintln(stderr, "addsd:", err)
		return cli.ExitCode(err)
	}

	// Cluster membership is static configuration: every member gets the same
	// -peers list and names itself with -self (defaulting to its listen
	// address), so all members derive the same ring with no coordination.
	// Misuse is a flag error, not a degraded server.
	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerList = append(peerList, p)
			}
		}
		if *self == "" {
			*self = *addr
		}
		if !slices.Contains(peerList, *self) {
			fmt.Fprintf(stderr, "addsd: -self %q is not in -peers %q\n", *self, *peers)
			return 2
		}
	}

	svc := service.New(service.Config{
		CacheEntries:   *cacheEntries,
		Workers:        workers,
		QueueDepth:     *queue,
		RequestTimeout: *timeout,
		Logger:         logger,
		TraceRing:      *traceRing,
		Peers:          peerList,
		Self:           *self,
		PeerTimeout:    *peerTimeout,
		MaxBodyBytes:   *maxBody,
		MaxBatchItems:  *maxBatch,
	})

	// Install the signal handler before announcing readiness so a SIGTERM
	// arriving during startup drains instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "addsd:", err)
		return 1
	}
	fmt.Fprintf(stdout, "addsd: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	srv := &http.Server{
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "addsd:", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, finish in-flight requests, then report
	// the cache counters so a session's effectiveness is visible in logs.
	fmt.Fprintln(stdout, "addsd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(stderr, "addsd: shutdown:", err)
		return 1
	}
	m := svc.Metrics()
	fmt.Fprintf(stdout, "addsd: bye (cache hits %d, misses %d, coalesced %d)\n",
		m.Count(service.CacheHits), m.Count(service.CacheMisses), m.Count(service.CacheCoalesced))
	return 0
}

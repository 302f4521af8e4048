// Command hybpworker executes simulation points for a cluster coordinator
// (hybpexp -worklisten). It registers over the work API, leases batches of
// content-addressed sim points, runs them through a local harness.Runner —
// inheriting retries, panic recovery, and the -cachedir disk cache — and
// uploads FNV-1a-checksummed result JSON.
// Results are pure functions of the leased spec, so any number of workers
// (and any crash/reassignment history) produces output bit-identical to a
// local run.
//
// A worker that dies simply stops heartbeating: the coordinator expires
// its leases and hands the items to the next worker. The first
// SIGINT/SIGTERM drains gracefully — no new leases, in-flight points
// finish and upload, then the worker deregisters; a second signal aborts
// immediately, abandoning leases to expiry and reassignment.
//
// Example:
//
//	hybpexp -scale quick -worklisten :9090 -minworkers 1 all &
//	hybpworker -coordinator http://127.0.0.1:9090 -j 8 -cachedir /var/cache/hybp
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"hybp/internal/cluster"
	"hybp/internal/faults"
	"hybp/internal/obs"
	"hybp/internal/sim"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "http://127.0.0.1:8080", "coordinator base URL")
		jobs        = flag.Int("j", runtime.NumCPU(), "parallel simulation workers (also the default lease batch size)")
		batch       = flag.Int("batch", 0, "sim points per lease request (default -j)")
		cacheDir    = flag.String("cachedir", "", "on-disk result cache directory (shared format with hybpexp/hybpd)")
		name        = flag.String("name", "", "worker label in coordinator logs and metrics (default host-pid)")
		quiet       = flag.Bool("quiet", false, "suppress lifecycle logging")
		faultSpec   = flag.String("faults", "", "deterministic fault-injection spec for chaos testing, e.g. seed=7,crashafter=20")
		logJSON     = flag.Bool("logjson", false, "emit structured JSON log lines (worker id, keys, trace/span ids as fields)")
	)
	flag.Parse()

	var logger *slog.Logger
	switch {
	case *quiet:
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	case *logJSON:
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	inj, err := faults.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpworker: -faults: %v\n", err)
		os.Exit(1)
	}
	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logger = logger.With("worker", *name)

	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Coordinator: *coordinator,
		Name:        *name,
		Jobs:        *jobs,
		Batch:       *batch,
		CacheDir:    *cacheDir,
		Faults:      inj,
		// Spans for executed points are uploaded with each result and
		// ingested into the coordinator's ring, so the worker ring only
		// buffers in-flight work — it can stay small.
		Tracer: obs.NewTracer(*name, 256),
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
		Exec: func(_ string, spec json.RawMessage) (json.RawMessage, error) {
			return sim.ExecutePoint(spec)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpworker: %v\n", err)
		os.Exit(1)
	}

	// Two-stage shutdown: the first SIGTERM/SIGINT drains — stop leasing,
	// finish and upload the in-flight batch, deregister. A second signal
	// hard-cancels, abandoning leases to coordinator expiry/reassignment.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		logger.Info("draining: finishing in-flight work (signal again to abort)", "signal", sig.String())
		w.Drain()
		sig = <-sigCh
		logger.Info("hard stop: abandoning leases to reassignment", "signal", sig.String())
		cancel()
	}()
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hybpworker: %v\n", err)
		os.Exit(1)
	}
	logger.Info("done", "stats", w.Stats().String())
}

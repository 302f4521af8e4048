// Command hybpd serves HyBP simulations over HTTP: a simulation-as-a-service
// daemon where clients POST simulation or experiment configs to /v1/jobs,
// poll GET /v1/jobs/{id}, or stream live progress over Server-Sent Events
// at /v1/jobs/{id}/events. Identical configs from different clients dedupe
// through the harness content-addressed key, and with -cachedir warm
// results return without executing a single simulation — across restarts.
//
// Endpoints:
//
//	POST /v1/jobs             submit a job (202 admitted, 200 deduped,
//	                          429 + Retry-After on a full queue)
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status + result
//	GET  /v1/jobs/{id}/events SSE progress stream
//	GET  /metrics             server, harness and journal counters (JSON)
//	GET  /metrics.prom        Prometheus exposition, job-latency histogram
//	GET  /healthz, /readyz    probes (readyz goes 503 while draining)
//
// Distributed sweeps are coordinated by hybpexp -worklisten (see
// internal/cluster and cmd/hybpworker).
//
// With -journal DIR every job state transition and SSE event is durably
// journaled (fsynced) before it is acknowledged or streamed. A restart on
// the same directory — graceful or kill -9 — replays the log: finished
// jobs return their results without re-executing, interrupted jobs
// resume, and SSE clients reconnect with Last-Event-ID across the
// restart.
//
// SIGINT/SIGTERM starts a graceful drain: admissions stop, in-flight jobs
// run to completion (up to -drain), then the listener closes. With
// -journal, still-queued jobs are left durable for the next boot instead
// of holding up shutdown.
//
// Example:
//
//	hybpd -addr :8080 -cachedir /var/cache/hybpd &
//	curl -s localhost:8080/v1/jobs -d '{"sim":{"bench":"gcc","mech":"hybp"}}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -N localhost:8080/v1/jobs/<id>/events
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hybp/internal/faults"
	"hybp/internal/obs"
	"hybp/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheDir  = flag.String("cachedir", "", "on-disk result cache directory (shared with hybpexp -cachedir)")
		journal   = flag.String("journal", "", "durable job journal directory: every state transition and SSE event is fsynced before it is acknowledged, and a restart (even after kill -9) replays it — terminal jobs come back with results, interrupted ones re-run, SSE streams resume via Last-Event-ID")
		jnSegMax  = flag.Int64("journalsegbytes", 0, "journal segment rotation threshold in bytes (0 = 4 MiB)")
		jobs      = flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
		workers   = flag.Int("workers", 0, "concurrent jobs (default max(2, NumCPU))")
		queue     = flag.Int("queue", 64, "admission queue capacity; overflow answers 429 + Retry-After")
		jobTO     = flag.Duration("jobtimeout", 15*time.Minute, "per-job execution timeout")
		reqTO     = flag.Duration("reqtimeout", 30*time.Second, "per-request timeout for non-streaming endpoints")
		drain     = flag.Duration("drain", 60*time.Second, "graceful shutdown drain deadline")
		progress  = flag.Duration("progressinterval", time.Second, "SSE progress event pacing")
		quiet     = flag.Bool("quiet", false, "suppress per-job logging")
		debug     = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (opt-in: profiling endpoints stay off production surfaces by default)")
		shed      = flag.Int("shed", 0, "queue depth at which experiment jobs shed with 429 while sim points still admit (0 = 3/4 of -queue, negative disables)")
		faultSpec = flag.String("faults", "", "deterministic fault-injection spec for chaos testing, e.g. seed=7,exec.panic=0.05,stream.drop=0.2")
		sseHB     = flag.Duration("sseheartbeat", 15*time.Second, "SSE keepalive ping interval")
		logJSON   = flag.Bool("logjson", false, "emit structured JSON log lines (job id, key, trace/span ids as fields)")
		traceBuf  = flag.Int("tracebuf", obs.DefaultRingSize, "span ring capacity for GET /debug/trace (0 disables tracing)")
	)
	flag.Parse()

	logger := newLogger(*logJSON)
	jobLog := logger
	if *quiet {
		jobLog = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	inj, err := faults.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpd: -faults: %v\n", err)
		os.Exit(1)
	}
	var tracer *obs.Tracer
	if *traceBuf > 0 {
		tracer = obs.NewTracer("hybpd", *traceBuf)
	}
	s, err := server.New(server.Config{
		QueueSize:           *queue,
		Workers:             *workers,
		HarnessWorkers:      *jobs,
		CacheDir:            *cacheDir,
		JournalDir:          *journal,
		JournalSegmentBytes: *jnSegMax,
		JobTimeout:          *jobTO,
		ProgressInterval:    *progress,
		SSEHeartbeat:        *sseHB,
		ShedThreshold:       *shed,
		Faults:              inj,
		Log:                 jobLog,
		Tracer:              tracer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpd: %v\n", err)
		var ce *server.ConfigError
		if errors.As(err, &ce) {
			os.Exit(2) // flag/config error, not a runtime failure
		}
		os.Exit(1)
	}
	// Publish the metrics snapshot into the process-global expvar registry
	// too, so /debug/vars-style tooling sees the same counters /metrics
	// serves.
	expvar.Publish("hybpd", expvar.Func(func() any { return s.Metrics() }))

	handler := withRequestTimeout(s.Handler(), *reqTO)
	if *debug {
		// The profiling mux mounts outside the request-timeout wrapper: a
		// 30-second CPU profile is supposed to outlive -reqtimeout.
		root := http.NewServeMux()
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		root.Handle("/", handler)
		handler = root
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	done := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		defer close(done)
		sig := <-sigCh
		logger.Info("draining", "signal", sig.String(), "deadline", drain.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		drainErr := s.Drain(ctx)
		if drainErr != nil {
			logger.Error("drain", "err", drainErr)
		}
		if err := httpSrv.Shutdown(ctx); err != nil || drainErr != nil {
			// The deadline expired with jobs or connections still live.
			// A missed drain must not become a hung process: force-close
			// every connection (including stuck SSE streams) so exit is
			// bounded by -drain, period.
			if err != nil {
				logger.Error("shutdown", "err", err)
			}
			logger.Warn("drain deadline exceeded, force-closing")
			if err := httpSrv.Close(); err != nil {
				logger.Error("close", "err", err)
			}
		}
	}()

	// Listen explicitly so the resolved address (port 0 included) can be
	// logged before serving — restart tooling and the journal smoke test
	// grep for this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpd: %v\n", err)
		os.Exit(1)
	}
	logger.Info("listening", "addr", ln.Addr().String(), "queue", *queue, "simworkers", *jobs,
		"cachedir", *cacheDir, "journal", *journal)
	if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
		fmt.Fprintf(os.Stderr, "hybpd: %v\n", err)
		os.Exit(1)
	}
	<-done
	logger.Info("drained", "stats", s.Stats().String())
}

// newLogger builds the process logger: human-readable text by default,
// one JSON object per line with -logjson (machine-ingestable; attrs carry
// job ids, keys, and trace/span ids).
func newLogger(jsonLines bool) *slog.Logger {
	if jsonLines {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// withRequestTimeout bounds every non-streaming request; the SSE endpoint
// is exempt (streams are bounded by client disconnect or server drain).
func withRequestTimeout(h http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return h
	}
	timed := http.TimeoutHandler(h, d, `{"error":"request timed out"}`)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isSSE(r) {
			h.ServeHTTP(w, r)
			return
		}
		timed.ServeHTTP(w, r)
	})
}

func isSSE(r *http.Request) bool {
	p := r.URL.Path
	const suffix = "/events"
	return len(p) >= len(suffix) && p[len(p)-len(suffix):] == suffix
}

package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"hybp/internal/faults"
	"hybp/internal/harness"
	"hybp/internal/journal"
	"hybp/internal/obs"
	"hybp/internal/pipeline"
	"hybp/internal/sim"
)

// Config parameterizes a Server. Zero values take the documented defaults.
type Config struct {
	// QueueSize bounds the admission queue; a full queue answers
	// 429 + Retry-After instead of accepting unbounded work (default 64).
	QueueSize int
	// Workers is the number of concurrent jobs (default NumCPU, min 2).
	// Actual simulation concurrency is bounded by HarnessWorkers; job
	// workers mostly block on harness futures.
	Workers int
	// HarnessWorkers bounds concurrent simulations (default NumCPU).
	HarnessWorkers int
	// CacheDir enables the shared on-disk result cache: warm jobs return
	// without executing any simulation, across restarts.
	CacheDir string
	// JournalDir enables the crash-recovery write-ahead log: every job
	// state transition and SSE event is fsynced there before it is
	// acknowledged or streamed, and New replays the directory's log —
	// restoring terminal jobs with results and re-enqueueing interrupted
	// ones — before serving. Empty disables journaling (the seed behavior).
	JournalDir string
	// JournalSegmentBytes overrides the journal's segment-rotation
	// threshold (default 4 MiB); tests shrink it to exercise compaction.
	JournalSegmentBytes int64
	// JobTimeout fails a job still running after this long (default 15m).
	JobTimeout time.Duration
	// ProgressInterval paces SSE progress events (default 1s).
	ProgressInterval time.Duration
	// SSEHeartbeat paces the comment pings that keep idle SSE streams
	// alive through proxies (default 15s). Tests lower it so liveness
	// signals don't cost wall-clock seconds.
	SSEHeartbeat time.Duration
	// Log, when set, receives structured admission/completion/panic
	// records (job id, key, trace ids as attrs). Silent by default.
	Log *slog.Logger
	// Tracer, when non-nil, records spans for request handling, SSE
	// sessions, and job execution, and is shared with the harness so the
	// daemon's whole pipeline lands in one ring — served as a Chrome trace
	// at GET /debug/trace. nil is free.
	Tracer *obs.Tracer
	// ShedThreshold is the queue depth at which whole-experiment jobs are
	// rejected early with 429 while cheap single-point jobs still admit —
	// graceful degradation under sustained pressure instead of a cliff
	// (default 3/4 of QueueSize; negative disables shedding).
	ShedThreshold int
	// Faults, when non-nil, injects deterministic faults into the harness
	// (cache, worker execution) and the SSE streams (chaos testing only).
	Faults *faults.Injector

	// execOverride replaces job execution in tests.
	execOverride func(j *Job) (any, error)
}

// Server owns the job store, the bounded admission queue, the worker pool,
// and the shared sim.Runner every job executes on.
type Server struct {
	cfg Config
	har *harness.Runner
	sim *sim.Runner
	met *metrics
	mux *http.ServeMux

	// jn is the write-ahead log (nil without JournalDir); epoch and
	// recovery are fixed during New's replay, before any request is served.
	jn        *journal.Journal
	epoch     int
	recovery  RecoveryInfo
	compactMu sync.Mutex

	mu       sync.Mutex
	jobs     map[string]*Job // by id
	order    []string        // admission order, for the jobs list
	queue    chan *Job
	draining bool

	workers sync.WaitGroup
	// closing is closed when Drain begins; SSE handlers and progress
	// tickers select on it so Shutdown is never blocked by a live stream.
	closing chan struct{}
}

// New builds a Server and starts its workers. Close (or Drain) releases
// it. With JournalDir set, New first replays the write-ahead log: terminal
// jobs come back with results, interrupted jobs are re-enqueued (the
// content-addressed cache makes the re-run idempotent), and SSE event
// logs are rebuilt so Last-Event-ID resume spans the restart. An invalid
// Config is rejected with a *ConfigError before any resource is touched.
func New(cfg Config) (*Server, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = max(2, runtime.NumCPU())
	}
	if cfg.HarnessWorkers <= 0 {
		cfg.HarnessWorkers = runtime.NumCPU()
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 15 * time.Minute
	}
	if cfg.ProgressInterval <= 0 {
		cfg.ProgressInterval = time.Second
	}
	if cfg.SSEHeartbeat <= 0 {
		cfg.SSEHeartbeat = 15 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.ShedThreshold == 0 {
		cfg.ShedThreshold = max(1, cfg.QueueSize*3/4)
	}
	met := newMetrics()
	har, err := harness.New(harness.Options{
		Workers:  cfg.HarnessWorkers,
		CacheDir: cfg.CacheDir,
		Faults:   cfg.Faults,
		Tracer:   cfg.Tracer,
		ExecHist: met.execTime,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		har:     har,
		sim:     sim.NewRunner(har),
		met:     met,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, cfg.QueueSize),
		closing: make(chan struct{}),
	}
	var resume []*Job
	if cfg.JournalDir != "" {
		jn, err := journal.Open(cfg.JournalDir, journal.Options{
			MaxSegmentBytes: cfg.JournalSegmentBytes,
			Faults:          cfg.Faults,
			FsyncHist:       met.jnFsync,
		})
		if err != nil {
			har.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.jn = jn
		if resume, err = s.recoverJournal(); err != nil {
			har.Close()
			jn.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	met.registerDerived(s)
	s.mux = s.routes()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		s.goSafe("worker", s.workerLoop)
	}
	// Re-enqueue the jobs a crash interrupted, after the workers exist so
	// a backlog larger than the queue drains instead of deadlocking New.
	for _, j := range resume {
		s.queue <- j
	}
	return s, nil
}

// Handler is the server's HTTP surface: request tracing (when a Tracer is
// configured) inside panic recovery — a panicking handler answers 500
// with a JSON error body and increments panics_recovered instead of
// tearing down the connection; one bad request must not look like an
// outage to every other client.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.traceRequests(s.mux)) }

func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				// Deliberate stream abort; net/http handles it quietly.
				panic(p)
			}
			s.met.panics.Inc()
			s.cfg.Log.Error("handler panic recovered", "method", r.Method, "path", r.URL.Path, "panic", fmt.Sprint(p))
			// If the handler already streamed a response this write is a
			// no-op; for the common pre-write case the client gets JSON.
			writeError(w, http.StatusInternalServerError, "internal error: %v", p)
		}()
		h.ServeHTTP(w, r)
	})
}

// traceRequests wraps every request in an http.request span, parented
// under the span context the client propagated in X-Hybp-* headers. With
// no Tracer configured the mux is served unwrapped — zero overhead.
func (s *Server) traceRequests(h http.Handler) http.Handler {
	if s.cfg.Tracer == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := obs.ContextWith(r.Context(), obs.ExtractHTTP(r.Header))
		ctx, span := s.cfg.Tracer.Start(ctx, "http.request")
		span.SetString("method", r.Method)
		span.SetString("path", r.URL.Path)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(ctx))
		span.SetInt("status", int64(sw.statusCode()))
		span.End()
	})
}

// statusWriter captures the response status for the request span. It must
// keep implementing http.Flusher: the SSE handler type-asserts it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (w *statusWriter) statusCode() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// Stats exposes the shared harness counters (one source of truth with
// hybpexp's -progress line).
func (s *Server) Stats() harness.Stats { return s.har.Stats() }

// Metrics snapshots the full observability state.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	return MetricsSnapshot{
		Journal: s.journalSnapshot(),
		Server: ServerCounters{
			JobsSubmitted:   int64(s.met.submitted.Value()),
			JobsDeduped:     int64(s.met.deduped.Value()),
			JobsRejected:    int64(s.met.rejected.Value()),
			JobsShed:        int64(s.met.shed.Value()),
			JobsCompleted:   int64(s.met.completed.Value()),
			JobsFailed:      int64(s.met.failed.Value()),
			JobsRunning:     s.met.running.Value(),
			PanicsRecovered: int64(s.met.panics.Value()),
			QueueDepth:      len(s.queue),
			QueueCapacity:   cap(s.queue),
			Draining:        draining,
		},
		Harness:         s.har.Stats(),
		SimulatedCycles: pipeline.TotalSimulatedCycles(),
	}
}

// Drain gracefully shuts the job side down: admissions stop (POST answers
// 503, /readyz goes unready), queued and in-flight jobs run to completion,
// live SSE streams are released. It returns ctx.Err() if the drain deadline
// passes first. Call before http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers drain the backlog, then exit
		close(s.closing)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	s.goSafe("drain-wait", func() {
		s.workers.Wait()
		close(done)
	})
	select {
	case <-done:
		s.har.Close()
		if err := s.jn.Close(); err != nil {
			s.cfg.Log.Error("journal close failed", "err", err)
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drains with a generous deadline; for tests and defer use.
func (s *Server) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = s.Drain(ctx)
}

func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.prom", s.handleMetricsProm)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/jobs: validate and canonicalize the config,
// dedupe through the content-addressed key, and either admit (202), attach
// to an existing job (200), reject on a full queue (429 + Retry-After), or
// refuse while draining (503).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	canon, key, err := normalize(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := jobID(key)

	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		s.met.submitted.Inc()
		s.met.deduped.Inc()
		ji := j.resubmit()
		s.cfg.Log.Info("job deduped", "job", id, "key", key, "submits", ji.Submits)
		writeJSON(w, http.StatusOK, ji)
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	// Load shedding: under sustained queue pressure, refuse the expensive
	// whole-experiment jobs first so cheap single points keep flowing —
	// the service degrades in fidelity before it degrades in availability.
	if s.cfg.ShedThreshold >= 0 && canon.Kind == KindExperiment && len(s.queue) >= s.cfg.ShedThreshold {
		s.mu.Unlock()
		s.met.submitted.Inc()
		s.met.shed.Inc()
		s.met.rejected.Inc()
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"shedding experiment jobs under load (queue %d/%d); retry after %ds or submit single sim points",
			len(s.queue), cap(s.queue), retry)
		return
	}
	j := newJob(id, key, canon, s.epoch, s.eventSink())
	// Remember the submit request's span context so the job's execution
	// span — which runs later, on a worker goroutine — still joins the
	// submitting client's trace.
	j.traceSC = obs.FromContext(r.Context())
	select {
	case s.queue <- j:
		s.jobs[id] = j
		s.order = append(s.order, id)
		s.mu.Unlock()
		s.met.submitted.Inc()
		s.cfg.Log.Info("job admitted", "job", id, "key", key,
			"queue", len(s.queue), "cap", cap(s.queue),
			"trace", j.traceSC.Trace, "span", j.traceSC.Span)
		w.Header().Set("Location", "/v1/jobs/"+id)
		writeJSON(w, http.StatusAccepted, j.Info())
	default:
		s.mu.Unlock()
		s.met.submitted.Inc()
		s.met.rejected.Inc()
		retry := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		writeError(w, http.StatusTooManyRequests,
			"admission queue full (%d jobs); retry after %ds", cap(s.queue), retry)
	}
}

// retryAfterSeconds estimates when queue space should free up: the backlog
// ahead of a new job divided by the worker count, floored at one second.
func (s *Server) retryAfterSeconds() int {
	est := 1 + len(s.queue)/s.cfg.Workers
	if est > 30 {
		est = 30
	}
	return est
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	list := JobList{Jobs: make([]JobInfo, 0, len(jobs))}
	for _, j := range jobs {
		list.Jobs = append(list.Jobs, j.Summary())
	}
	sort.SliceStable(list.Jobs, func(i, k int) bool {
		return list.Jobs[i].CreatedMS < list.Jobs[k].CreatedMS
	})
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) lookup(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// handleMetricsProm is GET /metrics.prom: the same instruments as the
// JSON snapshot, rendered in Prometheus text exposition format 0.0.4.
func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WritePrometheus(w)
}

// handleDebugTrace is GET /debug/trace: the tracer's current ring as
// Chrome trace-event JSON — download and load into Perfetto. An untraced
// server serves a valid empty trace.
func (s *Server) handleDebugTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="hybpd-trace.json"`)
	_ = obs.WriteChromeTrace(w, s.cfg.Tracer.Snapshot())
}

// handleEvents is GET /v1/jobs/{id}/events: a Server-Sent Events stream.
// The full event log is replayed first (resumable via Last-Event-ID), then
// live events follow; the stream ends after the terminal event, on client
// disconnect, or when the server drains.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	// An SSE session is long-lived; give it its own span (under the
	// request span traceRequests opened) so slow consumers are visible.
	sent := int64(0)
	_, span := s.cfg.Tracer.Start(r.Context(), "sse.session")
	span.SetString("job", j.id)
	defer func() {
		span.SetInt("events", sent)
		span.End()
	}()

	last := -1
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		if n, err := strconv.Atoi(lei); err == nil {
			last = n
		}
	}
	heartbeat := time.NewTicker(s.cfg.SSEHeartbeat)
	defer heartbeat.Stop()
	for {
		evs, more, terminal := j.eventsSince(last)
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			last = ev.Seq
			sent++
		}
		fl.Flush()
		if terminal {
			return
		}
		// Injected stream cut: the client re-subscribes with Last-Event-ID
		// and replays nothing it already saw — the resume path real
		// network flakes exercise.
		if s.cfg.Faults.Decide(faults.OpStream, j.id).Kind == faults.Drop {
			return
		}
		select {
		case <-more:
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		}
	}
}

// goSafe launches fn on a goroutine behind panic recovery: a panicking
// background task logs, increments panics_recovered, and dies alone
// instead of killing the daemon — the same containment Handler gives
// request handlers. Every `go` in this package routes through here or
// carries its own recovery (enforced by hybplint's gorecover analyzer).
func (s *Server) goSafe(what string, fn func()) {
	go func() {
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Inc()
				s.cfg.Log.Error("background goroutine panicked", "what", what, "panic", fmt.Sprint(p))
			}
		}()
		fn()
	}()
}

// workerLoop pulls admitted jobs until the queue is closed and drained.
// When a journal is live, a drain leaves still-queued jobs unrun: they are
// already durable as "queued" and the next boot resumes them — a restart
// should not have to wait out the whole backlog.
func (s *Server) workerLoop() {
	defer s.workers.Done()
	for j := range s.queue {
		if s.jn != nil && s.isDraining() && j.Info().Status == StatusQueued {
			s.cfg.Log.Info("drain: queued job persists in journal for next boot", "job", j.id)
			continue
		}
		s.runJob(j)
		s.maybeCompactJournal()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// runJob drives one job: running-state transition, paced progress events,
// execution with a timeout, latency accounting, terminal event.
func (s *Server) runJob(j *Job) {
	s.met.running.Add(1)
	defer s.met.running.Add(-1)
	// The execution span parents under the submit request's span (captured
	// in handleSubmit) so one client trace spans queue wait + execution.
	_, span := s.cfg.Tracer.Start(obs.ContextWith(context.Background(), j.traceSC), "server.job")
	span.SetString("job", j.id)
	span.SetString("key", j.key)
	span.SetString("kind", j.req.Kind)
	defer span.End()
	j.start()

	stopProgress := make(chan struct{})
	var progressDone sync.WaitGroup
	progressDone.Add(1)
	s.goSafe("job-progress", func() {
		defer progressDone.Done()
		t := time.NewTicker(s.cfg.ProgressInterval)
		defer t.Stop()
		started := time.Now()
		for {
			select {
			case <-t.C:
				j.progress(ProgressInfo{
					ElapsedMS: time.Since(started).Milliseconds(),
					Harness:   s.har.Stats(),
				})
			case <-stopProgress:
				return
			}
		}
	})

	type outcome struct {
		raw json.RawMessage
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		// A panicking job resolves as a typed failure, not a dead daemon:
		// the harness already contains simulation panics, so anything
		// reaching here is a dispatch-layer bug — recover it all the same.
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Inc()
				resCh <- outcome{err: fmt.Errorf("job panicked: %v", p)}
			}
		}()
		v, err := s.execute(j)
		if err != nil {
			resCh <- outcome{err: err}
			return
		}
		raw, err := json.Marshal(v)
		if err != nil {
			resCh <- outcome{err: fmt.Errorf("marshal result: %w", err)}
			return
		}
		resCh <- outcome{raw: raw}
	}()

	var out outcome
	select {
	case out = <-resCh:
	case <-time.After(s.cfg.JobTimeout):
		out = outcome{err: fmt.Errorf("job timed out after %s", s.cfg.JobTimeout)}
	}
	close(stopProgress)
	progressDone.Wait()

	// Publish the terminal state last: latency, the completion counter
	// and the server.job span are all settled first, so a client that
	// sees done/failed also finds the job in /metrics, /metrics.prom and
	// /debug/trace.
	finishedMS := nowMS()
	ms := finishedMS - j.Info().CreatedMS
	s.met.observeLatency(ms)
	if out.err != nil {
		s.met.failed.Inc()
		span.SetErr(out.err)
		s.cfg.Log.Error("job failed", "job", j.id, "key", j.key, "ms", ms, "err", out.err)
	} else {
		s.met.completed.Inc()
		s.cfg.Log.Info("job done", "job", j.id, "key", j.key, "ms", ms)
	}
	span.End()
	j.finish(out.raw, out.err, finishedMS)
}

// execute maps a normalized request to the sim runner.
func (s *Server) execute(j *Job) (any, error) {
	if s.cfg.execOverride != nil {
		return s.cfg.execOverride(j)
	}
	switch j.req.Kind {
	case KindSim:
		return s.executeSim(*j.req.Sim)
	case KindExperiment:
		e := *j.req.Experiment
		return s.sim.Experiment(e.Name, e.scale(), capBenches(e.NBench), capMixes(e.NMix))
	}
	return nil, fmt.Errorf("unknown job kind %q", j.req.Kind)
}

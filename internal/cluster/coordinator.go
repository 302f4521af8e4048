package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"hybp/internal/harness"
	"hybp/internal/obs"
)

// Options configures a Coordinator. The zero value is usable.
type Options struct {
	// LeaseTTL is how long a leased item survives without a heartbeat
	// before the janitor reclaims and requeues it (default 15s; tests use
	// milliseconds).
	LeaseTTL time.Duration
	// WorkerTTL is how long a silent worker is still counted as live for
	// the no-workers fallback decision (default 3×LeaseTTL).
	WorkerTTL time.Duration
	// LeaseWait bounds the lease long-poll: an empty queue holds the
	// request this long for work to arrive before returning an empty
	// batch (default 500ms).
	LeaseWait time.Duration
	// MaxBatch caps items per lease response (default 8).
	MaxBatch int
	// MinWorkers, when positive, makes Execute wait (up to MinWorkersWait)
	// for that many registrations before offering jobs — so a sweep
	// started moments before its workers doesn't fall back to local
	// execution job by job. Zero offers work whenever ≥1 worker is live.
	MinWorkers int
	// MinWorkersWait bounds the MinWorkers wait (default 30s); on timeout
	// the run proceeds with local execution.
	MinWorkersWait time.Duration
	// Logf, when non-nil, receives lifecycle lines (registrations, expiry,
	// reassignment). Silent by default.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records a span per remote offer and ingests
	// the spans workers upload with their results, so a distributed sweep
	// lands in one ring. nil disables tracing at the usual zero cost.
	Tracer *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.WorkerTTL <= 0 {
		o.WorkerTTL = 3 * o.LeaseTTL
	}
	if o.LeaseWait <= 0 {
		o.LeaseWait = 500 * time.Millisecond
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MinWorkersWait <= 0 {
		o.MinWorkersWait = 30 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Item states.
const (
	statePending = iota // queued, waiting for a lessee
	stateLeased         // assigned, deadline running
	stateDone           // resolved (payload or terminal error)
)

// workItem is one enqueued job: spec in, payload (or terminal error) out.
type workItem struct {
	key  string
	spec json.RawMessage
	// trace/span is the first offering caller's cluster.remote span
	// context, shipped to the lessee so its spans parent correctly.
	trace, span string

	state    int
	lessee   string    // worker id while leased
	deadline time.Time // lease expiry while leased
	assigns  int       // times handed out (>1 ⇒ reassigned)

	payload json.RawMessage // result bytes, exactly as uploaded
	failErr string          // terminal worker-side error, if any

	done      chan struct{} // closed when state becomes stateDone
	abandoned chan struct{} // closed when the fleet died; run locally
}

// workerState is the registry entry and counter row for one worker.
type workerState struct {
	id, name string
	lastSeen time.Time
	left     bool // deregistered

	leased, completed, expired, reassigned, duplicates, failed uint64
}

func (w *workerState) live(now time.Time, ttl time.Duration) bool {
	return !w.left && now.Sub(w.lastSeen) <= ttl
}

// Coordinator owns the work queue, the worker registry, and the janitor
// that reclaims expired leases. It implements harness.RemoteExec: the
// harness offers it every spec-carrying job, and Execute blocks until a
// worker resolves the item — or declines so the harness runs it locally.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	items   map[string]*workItem
	pending []*workItem // FIFO of statePending items
	workers map[string]*workerState
	nextID  int
	totals  Totals

	ready     chan struct{} // closed once MinWorkers have registered
	readyOnce sync.Once
	workCh    chan struct{} // best-effort "queue non-empty" signal
	closed    chan struct{}
	closeOnce sync.Once
}

// NewCoordinator builds a Coordinator and starts its janitor.
func NewCoordinator(opts Options) *Coordinator {
	c := &Coordinator{
		opts:    opts.withDefaults(),
		items:   make(map[string]*workItem),
		workers: make(map[string]*workerState),
		ready:   make(chan struct{}),
		workCh:  make(chan struct{}, 1),
		closed:  make(chan struct{}),
	}
	if c.opts.MinWorkers <= 0 {
		c.readyOnce.Do(func() { close(c.ready) })
	}
	go c.janitor()
	return c
}

// Close stops the janitor and releases every Execute waiter to local
// execution. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.closed) })
}

// Mount registers the work API on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/workers", c.handleRegister)
	mux.HandleFunc("POST /v1/cluster/workers/{id}/deregister", c.handleDeregister)
	mux.HandleFunc("POST /v1/work/lease", c.handleLease)
	mux.HandleFunc("POST /v1/work/{key}/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/work/{key}/result", c.handleResult)
	mux.HandleFunc("GET /v1/cluster", c.handleMetrics)
}

// signalWork nudges one lease long-poller without blocking.
func (c *Coordinator) signalWork() {
	select {
	case c.workCh <- struct{}{}:
	default:
	}
}

func (c *Coordinator) liveCountLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if w.live(now, c.opts.WorkerTTL) {
			n++
		}
	}
	return n
}

// Execute implements harness.RemoteExec. It enqueues the job and blocks
// until a worker resolves it, the fleet dies (run locally), or the
// coordinator closes. See harness.RemoteExec for the three-way contract.
// ctx's span context (the harness job span) parents a cluster.remote span
// covering the offer, and travels to the lessee via the work item.
func (c *Coordinator) Execute(ctx context.Context, key string, spec json.RawMessage) (json.RawMessage, bool, error) {
	rctx, span := c.opts.Tracer.Start(ctx, "cluster.remote")
	span.SetString("key", key)
	outcome := "completed"
	defer func() {
		span.SetString("outcome", outcome)
		span.End()
	}()

	// Hold the offer until the initial fleet arrives, bounded.
	var timeout <-chan time.Time
	if c.opts.MinWorkers > 0 {
		t := time.NewTimer(c.opts.MinWorkersWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-c.ready:
	case <-timeout:
		c.noteFallback()
		outcome = "local-fallback"
		return nil, false, nil
	case <-c.closed:
		outcome = "closed"
		return nil, false, nil
	}

	c.mu.Lock()
	it, exists := c.items[key]
	if !exists {
		if c.liveCountLocked(time.Now()) == 0 {
			c.totals.LocalFallback++
			c.mu.Unlock()
			outcome = "local-fallback"
			return nil, false, nil
		}
		sc := obs.FromContext(rctx)
		it = &workItem{
			key: key, spec: spec,
			trace: sc.Trace, span: sc.Span,
			done:      make(chan struct{}),
			abandoned: make(chan struct{}),
		}
		c.items[key] = it
		c.pending = append(c.pending, it)
	}
	c.mu.Unlock()
	c.signalWork()

	select {
	case <-it.done:
		c.mu.Lock()
		raw, failErr := it.payload, it.failErr
		c.mu.Unlock()
		if failErr != "" {
			outcome = "remote-failed"
			return nil, true, fmt.Errorf("cluster: remote execution failed: %s", failErr)
		}
		return raw, true, nil
	case <-it.abandoned:
		c.noteFallback()
		outcome = "abandoned"
		return nil, false, nil
	case <-c.closed:
		outcome = "closed"
		return nil, false, nil
	}
}

func (c *Coordinator) noteFallback() {
	c.mu.Lock()
	c.totals.LocalFallback++
	c.mu.Unlock()
}

// janitor periodically expires stale leases (requeueing their items) and,
// if the whole fleet has gone silent, abandons outstanding items back to
// local execution so a run never hangs on dead workers.
func (c *Coordinator) janitor() {
	// A sweep panic must not kill the embedding daemon (gorecover). The
	// janitor itself stays down — leases then expire only via the
	// lease-path checks — but registrations and results keep flowing.
	defer func() {
		if p := recover(); p != nil {
			c.opts.Logf("cluster: janitor panicked: %v", p)
		}
	}()
	period := c.opts.LeaseTTL / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.sweep(time.Now())
		}
	}
}

func (c *Coordinator) sweep(now time.Time) {
	c.mu.Lock()
	requeued := 0
	for _, it := range c.items {
		if it.state == stateLeased && now.After(it.deadline) {
			if w := c.workers[it.lessee]; w != nil {
				w.expired++
			}
			c.totals.Expired++
			c.opts.Logf("cluster: lease expired on %s (worker %s); requeueing", it.key, it.lessee)
			it.state = statePending
			it.lessee = ""
			c.pending = append(c.pending, it)
			requeued++
		}
	}
	// The fleet is gone only after it was ever expected: with MinWorkers
	// unset, items exist only if a worker was live at enqueue time; with
	// MinWorkers set, the ready latch closed before any enqueue.
	if c.liveCountLocked(now) == 0 {
		abandoned := 0
		for key, it := range c.items {
			if it.state != stateDone {
				close(it.abandoned)
				delete(c.items, key)
				abandoned++
			}
		}
		if abandoned > 0 {
			c.pending = nil
			c.opts.Logf("cluster: no live workers; released %d items to local execution", abandoned)
		}
	}
	c.mu.Unlock()
	if requeued > 0 {
		c.signalWork()
	}
}

// Metrics snapshots the coordinator's counters and queue state.
func (c *Coordinator) Metrics() MetricsSnapshot {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := MetricsSnapshot{Totals: c.totals}
	for _, w := range c.workers {
		snap.Workers = append(snap.Workers, WorkerCounters{
			ID: w.id, Name: w.name, Live: w.live(now, c.opts.WorkerTTL),
			Leased: w.leased, Completed: w.completed, Expired: w.expired,
			Reassigned: w.reassigned, Duplicates: w.duplicates, Failed: w.failed,
		})
	}
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].ID < snap.Workers[j].ID })
	for _, it := range c.items {
		switch it.state {
		case statePending:
			snap.Pending++
		case stateLeased:
			snap.Leased++
		case stateDone:
			snap.Done++
		}
	}
	return snap
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	c.mu.Lock()
	c.nextID++
	ws := &workerState{id: fmt.Sprintf("w%d", c.nextID), name: req.Name, lastSeen: time.Now()}
	c.workers[ws.id] = ws
	live := c.liveCountLocked(time.Now())
	c.mu.Unlock()
	if live >= c.opts.MinWorkers {
		c.readyOnce.Do(func() { close(c.ready) })
	}
	c.opts.Logf("cluster: worker %s (%s) registered (%d live)", ws.id, ws.name, live)
	writeJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:    ws.id,
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMS: (c.opts.LeaseTTL / 3).Milliseconds(),
	})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.mu.Lock()
	ws := c.workers[id]
	if ws == nil {
		c.mu.Unlock()
		writeErr(w, http.StatusNotFound, "unknown worker %q", id)
		return
	}
	ws.left = true
	requeued := 0
	for _, it := range c.items {
		if it.state == stateLeased && it.lessee == id {
			ws.expired++
			c.totals.Expired++
			it.state = statePending
			it.lessee = ""
			c.pending = append(c.pending, it)
			requeued++
		}
	}
	c.mu.Unlock()
	c.opts.Logf("cluster: worker %s deregistered (%d items returned)", id, requeued)
	if requeued > 0 {
		c.signalWork()
	}
	// A clean shutdown of the last worker releases outstanding items
	// immediately rather than waiting a janitor period.
	c.sweep(time.Now())
	writeJSON(w, http.StatusOK, struct{}{})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeInto(w, r, &req) {
		return
	}
	deadline := time.Now().Add(c.opts.LeaseWait)
	for {
		items, ok := c.tryLease(w, req)
		if !ok {
			return // error already written
		}
		if len(items) > 0 || !time.Now().Before(deadline) {
			writeJSON(w, http.StatusOK, LeaseResponse{
				Items:      items,
				LeaseTTLMS: c.opts.LeaseTTL.Milliseconds(),
			})
			return
		}
		// Empty queue: long-poll for work, the poll deadline, client
		// disconnect, or shutdown.
		wait := time.NewTimer(time.Until(deadline))
		select {
		case <-c.workCh:
			wait.Stop()
		case <-wait.C:
		case <-r.Context().Done():
			wait.Stop()
			return
		case <-c.closed:
			wait.Stop()
			writeJSON(w, http.StatusOK, LeaseResponse{LeaseTTLMS: c.opts.LeaseTTL.Milliseconds()})
			return
		}
	}
}

// tryLease pops up to req.Max pending items for the worker. ok=false means
// the request was rejected (response already written).
func (c *Coordinator) tryLease(w http.ResponseWriter, req LeaseRequest) ([]WorkItem, bool) {
	now := time.Now()
	c.mu.Lock()
	ws := c.workers[req.WorkerID]
	if ws == nil || ws.left {
		c.mu.Unlock()
		writeErr(w, http.StatusNotFound, "unknown worker %q", req.WorkerID)
		return nil, false
	}
	ws.lastSeen = now
	max := req.Max
	if max <= 0 || max > c.opts.MaxBatch {
		max = c.opts.MaxBatch
	}
	var items []WorkItem
	for len(c.pending) > 0 && len(items) < max {
		it := c.pending[0]
		c.pending = c.pending[1:]
		if it.state != statePending {
			continue // stale queue entry (e.g. resolved while requeued)
		}
		it.state = stateLeased
		it.lessee = ws.id
		it.deadline = now.Add(c.opts.LeaseTTL)
		it.assigns++
		reassigned := it.assigns > 1
		if reassigned {
			ws.reassigned++
			c.totals.Reassigned++
			c.opts.Logf("cluster: %s reassigned to worker %s (assignment %d)", it.key, ws.id, it.assigns)
		}
		ws.leased++
		c.totals.Leased++
		items = append(items, WorkItem{
			Key: it.key, Spec: it.spec, Reassigned: reassigned,
			Trace: it.trace, Span: it.span,
		})
	}
	morePending := len(c.pending) > 0
	c.mu.Unlock()
	if morePending {
		c.signalWork() // wake the next long-poller
	}
	return items, true
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if ws := c.workers[req.WorkerID]; ws != nil {
		ws.lastSeen = now
	}
	it := c.items[key]
	switch {
	case it == nil:
		writeErr(w, http.StatusNotFound, "unknown work item %q", key)
	case it.state == stateDone:
		// Resolved (possibly by a raced lessee); the worker should stop
		// beating but may still upload — the upload dedupes.
		writeJSON(w, http.StatusOK, HeartbeatResponse{LeaseTTLMS: 0})
	case it.state != stateLeased || it.lessee != req.WorkerID:
		writeErr(w, http.StatusConflict, "lease on %q not held by %q", key, req.WorkerID)
	default:
		it.deadline = now.Add(c.opts.LeaseTTL)
		writeJSON(w, http.StatusOK, HeartbeatResponse{LeaseTTLMS: c.opts.LeaseTTL.Milliseconds()})
	}
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var req ResultRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.Error == "" && req.Sum != harness.Checksum(req.Payload) {
		c.mu.Lock()
		c.totals.Rejected++
		c.mu.Unlock()
		writeErr(w, http.StatusBadRequest, "checksum mismatch on %q: got %s, computed %s",
			key, req.Sum, harness.Checksum(req.Payload))
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.workers[req.WorkerID]
	if ws != nil {
		ws.lastSeen = time.Now()
	}
	it := c.items[key]
	if it == nil {
		writeErr(w, http.StatusNotFound, "unknown work item %q", key)
		return
	}
	if it.state == stateDone {
		if ws != nil {
			ws.duplicates++
		}
		c.totals.Duplicates++
		writeJSON(w, http.StatusOK, ResultResponse{Duplicate: true})
		return
	}
	if req.Error != "" {
		// Terminal failures only count from the current lessee: a stale
		// (expired) lessee's give-up must not poison the item while its
		// replacement is still computing.
		if it.state != stateLeased || it.lessee != req.WorkerID {
			writeJSON(w, http.StatusOK, ResultResponse{Duplicate: true})
			return
		}
		it.failErr = req.Error
		ws.failed++
		c.totals.Failed++
	} else {
		// Success is accepted from anyone holding the bytes — content
		// addressing makes every correct upload interchangeable.
		it.payload = req.Payload
		if ws != nil {
			ws.completed++
		}
		c.totals.Completed++
	}
	// First acceptance only — duplicate uploads returned above, so a raced
	// lease can't double-ingest the same worker spans.
	c.opts.Tracer.Ingest(req.Spans)
	it.state = stateDone
	it.lessee = ""
	close(it.done)
	writeJSON(w, http.StatusOK, ResultResponse{})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, c.Metrics())
}

// Package cluster distributes a harness run's simulation points across
// worker processes. A Coordinator plugs into harness.Options.Remote: every
// spec-carrying job the harness would execute locally is instead enqueued
// as a content-addressed work item and served over a small stdlib-HTTP
// work API —
//
//	POST /v1/cluster/workers          register, get a worker id + lease TTL
//	POST /v1/work/lease               pull a batch of items (long-polls briefly)
//	POST /v1/work/{key}/heartbeat     extend the lease while computing
//	POST /v1/work/{key}/result        upload the checksummed result JSON
//	GET  /v1/cluster                  metrics snapshot (per-worker counters)
//
// A Worker registers, leases batches, executes each item through its own
// harness.Runner (inheriting retries, panic recovery, and the disk cache),
// and uploads results bound by the same FNV-1a envelope the disk cache
// uses. Leases carry deadlines; a worker that crashes or partitions simply
// stops heartbeating, the janitor expires its leases, and the items are
// reassigned to the next lessee. Result uploads are idempotent — keys are
// content addresses, so when a raced lease produces two uploads the second
// is acknowledged as a duplicate and discarded; both workers computed the
// same pure function, so either payload is the payload.
//
// Determinism is inherited, not implemented: a work item is a canonical
// sim.PointSpec, every seed derives from the spec itself, and the result
// bytes are the json.Marshal of the computed value — so a distributed run
// (any worker count, any crash/reassignment history) is bit-identical to a
// local -j 1 run. When no workers are registered the Coordinator declines
// every offer and the harness executes in-process, leaving single-node
// behavior unchanged.
package cluster

import (
	"encoding/json"

	"hybp/internal/obs"
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name is a human-readable label for logs and metrics (hostname, pid).
	Name string `json:"name"`
}

// RegisterResponse assigns the worker its identity and timing contract.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is how long a leased item stays assigned without a
	// heartbeat; HeartbeatMS is the interval workers should heartbeat at
	// (a third of the TTL, so two beats can be lost before expiry).
	LeaseTTLMS  int64 `json:"lease_ttl_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

// LeaseRequest pulls a batch of work items.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// Max caps the batch; the coordinator clamps it to its own MaxBatch.
	Max int `json:"max,omitempty"`
}

// WorkItem is one leased simulation point: the content-addressed key and
// the canonical spec it was derived from.
type WorkItem struct {
	Key  string          `json:"key"`
	Spec json.RawMessage `json:"spec"`
	// Reassigned marks an item whose previous lease expired — it was
	// handed out before, to a worker that crashed or stalled.
	Reassigned bool `json:"reassigned,omitempty"`
	// Trace/Span carry the coordinator-side span context of this item so
	// the worker's spans parent under it — one distributed sweep, one
	// trace. Empty when the coordinator runs untraced.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
}

// LeaseResponse carries the batch. Empty Items means no work was pending
// within the long-poll window; workers just lease again.
type LeaseResponse struct {
	Items      []WorkItem `json:"items"`
	LeaseTTLMS int64      `json:"lease_ttl_ms"`
}

// HeartbeatRequest extends the lease on one item (key in the URL).
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

// HeartbeatResponse acknowledges the extension.
type HeartbeatResponse struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// ResultRequest uploads one item's outcome. Success carries the result
// JSON bound by Sum — the same "fnv1a:%016x" checksum envelope the disk
// cache stores (harness.Checksum), verified before the payload is
// accepted. A worker whose harness gave up permanently reports Error
// instead; the coordinator then releases the job back to local execution
// for the definitive verdict.
type ResultRequest struct {
	WorkerID string          `json:"worker_id"`
	Sum      string          `json:"sum,omitempty"`
	Payload  json.RawMessage `json:"payload,omitempty"`
	Error    string          `json:"error,omitempty"`
	// Spans are the worker-side spans recorded while computing this item
	// (worker.point and children). The coordinator ingests them into its
	// own tracer on first acceptance, stitching the distributed timeline.
	Spans []obs.Record `json:"spans,omitempty"`
}

// ResultResponse acknowledges an upload. Duplicate marks an upload for an
// item already resolved (a raced lease after reassignment) — harmless by
// construction, counted for observability.
type ResultResponse struct {
	Duplicate bool `json:"duplicate,omitempty"`
}

// WorkerCounters is one worker's row in the metrics snapshot.
type WorkerCounters struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// Live is whether the worker is currently considered present (seen
	// within the worker TTL and not deregistered). Dead workers keep
	// their row so post-run accounting still sums.
	Live bool `json:"live"`
	// Leased counts items handed to this worker (re-leases included);
	// Completed counts its accepted result uploads; Expired counts its
	// leases the janitor reclaimed; Reassigned counts items this worker
	// picked up after another worker's lease expired; Duplicates counts
	// its uploads for already-resolved items; Failed counts its terminal
	// error reports.
	Leased     uint64 `json:"leased"`
	Completed  uint64 `json:"completed"`
	Expired    uint64 `json:"expired"`
	Reassigned uint64 `json:"reassigned"`
	Duplicates uint64 `json:"duplicates"`
	Failed     uint64 `json:"failed"`
}

// Totals aggregates the same counters across all workers, plus
// coordinator-side outcomes that belong to no worker.
type Totals struct {
	Leased     uint64 `json:"leased"`
	Completed  uint64 `json:"completed"`
	Expired    uint64 `json:"expired"`
	Reassigned uint64 `json:"reassigned"`
	Duplicates uint64 `json:"duplicates"`
	Failed     uint64 `json:"failed"`
	// Rejected counts uploads refused for checksum mismatch.
	Rejected uint64 `json:"rejected"`
	// LocalFallback counts jobs the coordinator declined (no workers
	// registered, or the fleet died mid-run) — the harness ran those
	// in-process.
	LocalFallback uint64 `json:"local_fallback"`
}

// MetricsSnapshot is the coordinator's observable state, served at
// GET /v1/cluster and in hybpexp -stats output.
type MetricsSnapshot struct {
	Workers []WorkerCounters `json:"workers"`
	Totals  Totals           `json:"totals"`
	// Pending/Leased/Done count work items by state right now.
	Pending int `json:"pending"`
	Leased  int `json:"leased_now"`
	Done    int `json:"done"`
}

// errorBody is the JSON error envelope the work API returns on non-2xx,
// matching the hybpd API's shape.
type errorBody struct {
	Error string `json:"error"`
}

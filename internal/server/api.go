// Package server is the simulation-as-a-service subsystem: a stdlib-only
// net/http JSON API over the internal/sim experiment runner. Clients POST
// simulation or experiment configs to /v1/jobs, poll GET /v1/jobs/{id}, or
// stream live progress over Server-Sent Events at /v1/jobs/{id}/events.
//
// Every job is content-addressed through the internal/harness key of its
// canonical (defaults-filled) config, so identical configs from different
// clients coalesce onto one job, and — with a cache directory — warm
// results return without executing a single simulation. Production posture
// is deliberate: a bounded admission queue that answers 429 + Retry-After
// when full, per-job execution timeouts, graceful shutdown that drains
// in-flight jobs, /healthz and /readyz probes, a JSON /metrics snapshot of
// the server, harness and journal counters, and the Prometheus exposition
// at /metrics.prom (which carries the job-latency histogram).
package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"hybp/internal/harness"
	"hybp/internal/sim"
	"hybp/internal/workload"
)

// Job kinds.
const (
	KindSim        = "sim"        // one simulation point (hybpsim over HTTP)
	KindExperiment = "experiment" // one named paper experiment (hybpexp over HTTP)
)

// JobRequest is the body of POST /v1/jobs. Exactly one of Sim/Experiment
// must be set, matching Kind (an unset Kind is inferred).
type JobRequest struct {
	Kind       string             `json:"kind,omitempty"`
	Sim        *SimRequest        `json:"sim,omitempty"`
	Experiment *ExperimentRequest `json:"experiment,omitempty"`
}

// SimRequest configures a single simulation point: one or two benchmarks on
// a defense mechanism with context switching. Zero fields take the
// documented defaults during normalization, so two requests that spell the
// same point differently still dedupe to one job.
type SimRequest struct {
	// Bench is the benchmark for hardware thread 0 (required).
	Bench string `json:"bench"`
	// Bench2, when set, enables SMT-2 with this benchmark on thread 1.
	Bench2 string `json:"bench2,omitempty"`
	// Mech is the defense mechanism (default "hybp").
	Mech string `json:"mech,omitempty"`
	// Interval is the context-switch interval in cycles (default 2_000_000,
	// the quick-scale default slice; 0 keeps the default — use NoSwitch to
	// disable switching).
	Interval uint64 `json:"interval,omitempty"`
	// NoSwitch disables context switching entirely.
	NoSwitch bool `json:"no_switch,omitempty"`
	// Cycles is the simulated cycle budget (default 6_000_000).
	Cycles uint64 `json:"cycles,omitempty"`
	// Warmup cycles are excluded from measurement (default 1_000_000).
	Warmup uint64 `json:"warmup,omitempty"`
	// Seed drives all randomness (default 2022).
	Seed uint64 `json:"seed,omitempty"`
	// ReplicationOverhead is the extra-storage factor for mech
	// "replication", at most 16 (default 1.0).
	ReplicationOverhead float64 `json:"replication_overhead,omitempty"`
	// KeysEntries overrides HyBP's randomized-index keys-table size
	// (Table VI), a power of two up to 65536; 0 keeps the paper's 1024.
	KeysEntries int `json:"keys_entries,omitempty"`
}

// ExperimentRequest configures one named paper experiment (see
// sim.ValidExperiments). Scale resolves a preset; the explicit overrides
// are applied after, and the fully resolved scale is what the job is
// content-addressed by.
type ExperimentRequest struct {
	// Name is the experiment: table1, fig5, brb, ... (required).
	Name string `json:"name"`
	// Scale is the fidelity preset: tiny|quick|medium|full (default "quick" —
	// a service should default to its cheapest fidelity).
	Scale string `json:"scale,omitempty"`
	// Seed overrides the preset's seed.
	Seed uint64 `json:"seed,omitempty"`
	// NBench limits per-application experiments to the first N figure apps.
	NBench int `json:"nbench,omitempty"`
	// NMix limits SMT experiments to the first N Table V mixes.
	NMix int `json:"nmix,omitempty"`
	// Cycles/Warmup override the preset's per-point budgets.
	Cycles uint64 `json:"cycles,omitempty"`
	Warmup uint64 `json:"warmup,omitempty"`
	// Intervals overrides the preset's context-switch sweep.
	Intervals []uint64 `json:"intervals,omitempty"`
}

// Job statuses.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// JobInfo is the API's view of one job. The same shape serves POST
// responses, GET /v1/jobs/{id}, the jobs list, and SSE event payloads.
type JobInfo struct {
	// ID is derived from the content-addressed key, so identical configs
	// always name the same job.
	ID string `json:"id"`
	// Key is the harness content-addressed key the job dedupes through.
	Key    string `json:"key"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	// Deduped is set on submission responses that attached to an existing
	// job instead of creating one.
	Deduped bool `json:"deduped,omitempty"`
	// Submits counts how many POSTs mapped to this job (1 = never deduped).
	Submits int `json:"submits"`
	// Error is set when Status is failed.
	Error string `json:"error,omitempty"`
	// CreatedMS/StartedMS/FinishedMS are unix milliseconds.
	CreatedMS  int64 `json:"created_ms"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`
	// Result is the job's kind-specific payload (SimJobResult for sim
	// jobs, the experiment's row struct for experiment jobs), present when
	// Status is done.
	Result json.RawMessage `json:"result,omitempty"`
}

// Terminal reports whether the job has finished (successfully or not).
func (ji JobInfo) Terminal() bool {
	return ji.Status == StatusDone || ji.Status == StatusFailed
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []JobInfo `json:"jobs"`
}

// Event is one SSE payload. Seq is strictly increasing per job and doubles
// as the SSE event id, so clients can resume with Last-Event-ID.
type Event struct {
	Seq  int     `json:"seq"`
	Type string  `json:"type"` // queued|running|progress|done|failed
	Job  JobInfo `json:"job"`
	// Epoch is the journal recovery epoch the event was emitted in: 0 until
	// the first crash recovery, then monotonically increasing per restart
	// that replayed a journal. Seqs stay dense across epochs (recovery
	// resumes numbering where the replayed log ended), so a resumed stream
	// never regresses; the epoch tells a client the daemon restarted under
	// it — a resumed job re-announces "running" in the new epoch.
	Epoch int `json:"epoch,omitempty"`
	// Progress accompanies "progress" events.
	Progress *ProgressInfo `json:"progress,omitempty"`
}

// ProgressInfo is the live payload of a progress event: how long the job
// has been running and the shared harness counters at that instant.
type ProgressInfo struct {
	ElapsedMS int64         `json:"elapsed_ms"`
	Harness   harness.Stats `json:"harness"`
}

// SimThread is one hardware thread's measurement in a SimJobResult,
// pre-baked into the headline metrics plus the raw counters.
type SimThread struct {
	Bench          string          `json:"bench"`
	IPC            float64         `json:"ipc"`
	MPKI           float64         `json:"mpki"`
	Accuracy       float64         `json:"accuracy"`
	BaselineIPC    float64         `json:"baseline_ipc"`
	DegradationPct float64         `json:"degradation_pct"`
	Raw            json.RawMessage `json:"raw,omitempty"`
}

// SimJobResult is the result payload of a KindSim job: the requested
// mechanism measured against the unprotected baseline on an identical
// workload stream.
type SimJobResult struct {
	Mechanism             string      `json:"mechanism"`
	Interval              uint64      `json:"interval"`
	Cycles                uint64      `json:"cycles"`
	Warmup                uint64      `json:"warmup"`
	Seed                  uint64      `json:"seed"`
	Threads               []SimThread `json:"threads"`
	ThroughputIPC         float64     `json:"throughput_ipc"`
	BaselineThroughputIPC float64     `json:"baseline_throughput_ipc"`
	DegradationPct        float64     `json:"degradation_pct"`
}

// ErrorBody is every non-2xx JSON response.
type ErrorBody struct {
	Error string `json:"error"`
}

// MetricsSnapshot is the body of GET /metrics.
type MetricsSnapshot struct {
	Server  ServerCounters `json:"server"`
	Harness harness.Stats  `json:"harness"`
	// Journal is present only when the server runs with -journal: write-
	// ahead-log counters plus what the last boot's recovery replayed.
	Journal *JournalSnapshot `json:"journal,omitempty"`
	// SimulatedCycles is the cumulative virtual cycles simulated by this
	// process (pipeline.TotalSimulatedCycles). Load tests subtract two
	// snapshots to report simulator-side cycles/sec independently of
	// request throughput: a warm-cache run serves jobs while this stays
	// flat.
	SimulatedCycles uint64 `json:"simulated_cycles"`
}

// ServerCounters are the admission-side expvar counters.
type ServerCounters struct {
	JobsSubmitted int64 `json:"jobs_submitted"`
	JobsDeduped   int64 `json:"jobs_deduped"`
	JobsRejected  int64 `json:"jobs_rejected"`
	// JobsShed is the subset of rejections from load shedding: experiment
	// jobs turned away at the shed threshold before the queue was full.
	JobsShed      int64 `json:"jobs_shed"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsRunning   int64 `json:"jobs_running"`
	// PanicsRecovered counts handler and job-execution panics converted
	// into 500 responses / failed jobs instead of daemon crashes.
	PanicsRecovered int64 `json:"panics_recovered"`
	QueueDepth      int   `json:"queue_depth"`
	QueueCapacity   int   `json:"queue_capacity"`
	Draining        bool  `json:"draining"`
}

// JournalSnapshot is the journal section of GET /metrics.
type JournalSnapshot struct {
	Dir         string `json:"dir"`
	Segments    int    `json:"segments"`
	ActiveBytes int64  `json:"active_bytes"`
	Appended    int64  `json:"records_appended"`
	Replayed    int64  `json:"records_replayed"`
	Torn        int64  `json:"torn_repaired"`
	Quarantined int64  `json:"quarantined"`
	Fsyncs      int64  `json:"fsyncs"`
	Compacted   int64  `json:"segments_compacted"`
	// AppendErrors counts events that could not be journaled (logged and
	// served from memory anyway — availability over durability).
	AppendErrors int64        `json:"append_errors"`
	Recovery     RecoveryInfo `json:"recovery"`
}

// RecoveryInfo describes what this process replayed at startup. All-zero
// (with Epoch 0) means the journal was fresh — a first boot.
type RecoveryInfo struct {
	// Epoch is this process's recovery epoch: 0 on a fresh journal, else
	// one above the highest epoch seen in the replayed log.
	Epoch int `json:"epoch"`
	// ReplayedRecords is how many intact journal records the boot replayed.
	ReplayedRecords int `json:"replayed_records"`
	// RecoveredJobs = RestoredTerminal + Resumed.
	RecoveredJobs int `json:"recovered_jobs"`
	// RestoredTerminal jobs came back done/failed with results intact —
	// no re-execution at all.
	RestoredTerminal int `json:"restored_terminal"`
	// Resumed jobs were queued or running at the crash and were re-enqueued
	// (content-addressing makes the re-run idempotent: warm cache entries
	// complete instantly).
	Resumed int `json:"resumed"`
	// Dropped jobs had journal records too damaged to act on (no request
	// left to re-run, or no intact events); clients must resubmit those.
	Dropped int `json:"dropped"`
}

// normalize validates req, fills every defaulted field, and returns the
// canonical request plus its content-addressed harness key. The canonical
// form is the job's identity: requests that resolve to the same canonical
// struct share one job, one cache entry, and one simulation.
func normalize(req JobRequest) (JobRequest, string, error) {
	switch {
	case req.Sim != nil && req.Experiment != nil:
		return req, "", fmt.Errorf("exactly one of sim or experiment must be set")
	case req.Sim != nil:
		if req.Kind == "" {
			req.Kind = KindSim
		}
		if req.Kind != KindSim {
			return req, "", fmt.Errorf("kind %q does not match the sim config", req.Kind)
		}
		s, err := normalizeSim(*req.Sim)
		if err != nil {
			return req, "", err
		}
		req.Sim = &s
		key := harness.Key(fmt.Sprintf("api-sim-%s-%s", s.Bench, s.Mech), req)
		return req, key, nil
	case req.Experiment != nil:
		if req.Kind == "" {
			req.Kind = KindExperiment
		}
		if req.Kind != KindExperiment {
			return req, "", fmt.Errorf("kind %q does not match the experiment config", req.Kind)
		}
		e, err := normalizeExperiment(*req.Experiment)
		if err != nil {
			return req, "", err
		}
		req.Experiment = &e
		key := harness.Key(fmt.Sprintf("api-exp-%s-%s", e.Name, e.Scale), req)
		return req, key, nil
	}
	return req, "", fmt.Errorf("missing job config: set sim or experiment")
}

func normalizeSim(s SimRequest) (SimRequest, error) {
	if s.Bench == "" {
		return s, fmt.Errorf("sim.bench is required (valid: %s)", strings.Join(workload.Names(), ", "))
	}
	if !workload.Has(s.Bench) {
		return s, fmt.Errorf("unknown benchmark %q (valid: %s)", s.Bench, strings.Join(workload.Names(), ", "))
	}
	if s.Bench2 != "" && !workload.Has(s.Bench2) {
		return s, fmt.Errorf("unknown benchmark %q (valid: %s)", s.Bench2, strings.Join(workload.Names(), ", "))
	}
	if s.Mech == "" {
		s.Mech = string(sim.MechHyBP)
	}
	if s.Cycles == 0 {
		s.Cycles = 6_000_000
	}
	if s.Warmup == 0 {
		s.Warmup = 1_000_000
	}
	if s.Warmup >= s.Cycles {
		return s, fmt.Errorf("sim.warmup (%d) must be below sim.cycles (%d)", s.Warmup, s.Cycles)
	}
	if s.NoSwitch {
		s.Interval = 0
	} else if s.Interval == 0 {
		s.Interval = 2_000_000
	}
	if s.Seed == 0 {
		s.Seed = 2022
	}
	if s.Mech == string(sim.MechReplication) {
		if s.ReplicationOverhead == 0 {
			s.ReplicationOverhead = 1.0
		}
	} else {
		s.ReplicationOverhead = 0
	}
	if s.KeysEntries != 0 && s.Mech != string(sim.MechHyBP) {
		s.KeysEntries = 0
	}
	return s, s.mechSpec().Validate()
}

// mechSpec is the mechanism configuration a normalized request names.
func (s SimRequest) mechSpec() sim.MechSpec {
	m := sim.Mech(sim.MechanismID(s.Mech))
	if s.Mech == string(sim.MechReplication) {
		m.ReplFactor = s.ReplicationOverhead
	}
	m.KeysEntries = s.KeysEntries
	return m
}

func normalizeExperiment(e ExperimentRequest) (ExperimentRequest, error) {
	if e.Name == "" {
		return e, fmt.Errorf("experiment.name is required (valid: %s)", strings.Join(sim.ValidExperiments(), ", "))
	}
	if !sim.ValidExperiment(e.Name) {
		return e, fmt.Errorf("unknown experiment %q (valid: %s)", e.Name, strings.Join(sim.ValidExperiments(), ", "))
	}
	if e.Scale == "" {
		e.Scale = "quick"
	}
	if _, err := sim.ParseScale(e.Scale); err != nil {
		return e, err
	}
	if e.NBench < 0 || e.NMix < 0 {
		return e, fmt.Errorf("nbench/nmix must be non-negative")
	}
	if e.Seed == 0 {
		e.Seed = 2022
	}
	return e, e.scale().Validate()
}

// scale resolves a normalized experiment request to its effective Scale.
func (e ExperimentRequest) scale() sim.Scale {
	sc, _ := sim.ParseScale(e.Scale)
	sc.Seed = e.Seed
	if e.Cycles > 0 {
		sc.MaxCycles = e.Cycles
	}
	if e.Warmup > 0 {
		sc.WarmupCycles = e.Warmup
	}
	if len(e.Intervals) > 0 {
		sc.Intervals = e.Intervals
		sc.DefaultInterval = e.Intervals[len(e.Intervals)-1]
	}
	return sc
}

// jobID derives the stable job id from the content-addressed key.
func jobID(key string) string {
	return fmt.Sprintf("j%016x", harness.Hash(key))
}

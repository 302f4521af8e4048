package server

import (
	"hybp/internal/journal"
	"hybp/internal/obs"
	"hybp/internal/pipeline"
)

// latencyBoundsMS are the histogram bucket upper bounds for job
// submit→finish latency, in milliseconds. The spread covers instant
// cache hits (1ms) through full-scale experiment runs (minutes).
var latencyBoundsMS = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10_000, 30_000, 60_000, 300_000,
}

// execBoundsMS buckets single simulation-point execution time — jobs are
// seconds, not minutes, so the spread tops out lower than job latency.
var execBoundsMS = []float64{
	1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10_000, 30_000, 60_000,
}

// fsyncBoundsMS buckets journal fsync latency: sub-millisecond on NVMe and
// tmpfs, tens of milliseconds on contended spinning disks.
var fsyncBoundsMS = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250,
}

// metrics is the server's observability state, hosted on an obs.Registry
// so one set of instruments serves both the JSON /metrics snapshot and
// the Prometheus text exposition at /metrics.prom. The registry is
// per-Server (a process-global one would collide across httptest
// instances).
type metrics struct {
	reg *obs.Registry

	submitted, deduped, rejected *obs.Counter
	completed, failed            *obs.Counter
	// panics counts handler and job-execution panics recovered into 500s
	// and failed jobs; shed counts experiment submissions rejected early
	// by load shedding (before the queue was hard-full).
	panics, shed *obs.Counter
	running      *obs.Gauge

	latency  *obs.Histogram
	execTime *obs.Histogram

	// jnFsync feeds the journal's fsync latency (created eagerly so it can
	// be handed to journal.Open, registered only when a journal is live);
	// journalErrs counts events that failed to journal — a zero-value
	// placeholder until registerDerived swaps in the registered counter.
	jnFsync     *obs.Histogram
	journalErrs *obs.Counter
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:       reg,
		submitted: reg.Counter("hybp_jobs_submitted_total", "job submissions accepted for consideration"),
		deduped:   reg.Counter("hybp_jobs_deduped_total", "submissions coalesced onto an existing job"),
		rejected:  reg.Counter("hybp_jobs_rejected_total", "submissions refused (queue full or shed)"),
		shed:      reg.Counter("hybp_jobs_shed_total", "experiment submissions refused by load shedding"),
		completed: reg.Counter("hybp_jobs_completed_total", "jobs finished successfully"),
		failed:    reg.Counter("hybp_jobs_failed_total", "jobs finished with a terminal error"),
		panics:    reg.Counter("hybp_panics_recovered_total", "handler and job panics recovered"),
		running:   reg.Gauge("hybp_jobs_running", "jobs executing right now"),
		latency:   reg.Histogram("hybp_job_latency_ms", "job submit-to-finish latency in milliseconds", obs.NewHistogram(latencyBoundsMS)),
		execTime:  reg.Histogram("hybp_exec_time_ms", "harness local execution time per attempt in milliseconds", obs.NewHistogram(execBoundsMS)),

		jnFsync:     obs.NewHistogram(fsyncBoundsMS),
		journalErrs: &obs.Counter{},
	}
	return m
}

// registerDerived adds the scrape-time instruments that read state owned
// elsewhere: harness counters, queue depth, simulated cycles, and the
// journal's counters when one is live. Called once from New after the
// harness exists.
func (m *metrics) registerDerived(s *Server) {
	m.reg.CounterFunc("hybp_harness_submitted_total", "harness job submissions", func() uint64 { return s.har.Stats().Submitted })
	m.reg.CounterFunc("hybp_harness_deduped_total", "harness submissions deduped on the content key", func() uint64 { return s.har.Stats().Deduped })
	m.reg.CounterFunc("hybp_harness_executed_total", "jobs computed locally", func() uint64 { return s.har.Stats().Executed })
	m.reg.CounterFunc("hybp_cache_disk_hits_total", "jobs satisfied from the on-disk result cache", func() uint64 { return s.har.Stats().DiskHits })
	m.reg.CounterFunc("hybp_retry_total", "job re-executions after transient failures", func() uint64 { return s.har.Stats().Retries })
	m.reg.CounterFunc("hybp_retry_budget_left", "remaining per-run retry budget", func() uint64 { return s.har.Stats().RetryBudgetLeft })
	m.reg.CounterFunc("hybp_harness_panics_recovered_total", "worker panics recovered into typed errors", func() uint64 { return s.har.Stats().Panics })
	m.reg.CounterFunc("hybp_cache_quarantines_total", "corrupt cache entries quarantined and recomputed", func() uint64 { return s.har.Stats().Quarantines })
	m.reg.CounterFunc("hybp_harness_failed_total", "jobs that exhausted retry", func() uint64 { return s.har.Stats().Failed })
	m.reg.GaugeFunc("hybp_queue_depth", "admission queue depth", func() int64 { return int64(len(s.queue)) })
	m.reg.GaugeFunc("hybp_queue_capacity", "admission queue capacity", func() int64 { return int64(cap(s.queue)) })
	m.reg.CounterFunc("hybp_sim_cycles_total", "cumulative virtual cycles simulated by this process", pipeline.TotalSimulatedCycles)

	if s.jn != nil {
		jst := func(read func(journal.Stats) uint64) func() uint64 {
			return func() uint64 { return read(s.jn.Stats()) }
		}
		m.journalErrs = m.reg.Counter("hybp_journal_append_errors_total", "events that could not be journaled (served from memory only)")
		m.reg.CounterFunc("hybp_journal_appended_total", "journal records durably appended", jst(func(st journal.Stats) uint64 { return st.Appended }))
		m.reg.CounterFunc("hybp_journal_replayed_total", "journal records replayed at startup", jst(func(st journal.Stats) uint64 { return st.Replayed }))
		m.reg.CounterFunc("hybp_journal_torn_total", "torn record tails truncated at startup", jst(func(st journal.Stats) uint64 { return st.Torn }))
		m.reg.CounterFunc("hybp_journal_quarantined_total", "corrupt segment tails quarantined to .bad files", jst(func(st journal.Stats) uint64 { return st.Quarantined }))
		m.reg.CounterFunc("hybp_journal_fsyncs_total", "journal fsync calls (group commit batches appends)", jst(func(st journal.Stats) uint64 { return st.Fsyncs }))
		m.reg.CounterFunc("hybp_journal_compacted_segments_total", "sealed segments removed by checkpoint compaction", jst(func(st journal.Stats) uint64 { return st.Dropped }))
		m.reg.GaugeFunc("hybp_journal_segments", "journal segment files on disk (sealed + active)", func() int64 { return int64(s.jn.Stats().Segments) })
		m.reg.GaugeFunc("hybp_journal_active_bytes", "bytes in the active journal segment", func() int64 { return s.jn.Stats().ActiveBytes })
		m.reg.GaugeFunc("hybp_journal_recovery_epoch", "recovery epoch of this process (0 = fresh journal)", func() int64 { return int64(s.recovery.Epoch) })
		m.reg.GaugeFunc("hybp_journal_recovered_jobs", "jobs rebuilt from the journal at startup", func() int64 { return int64(s.recovery.RecoveredJobs) })
		m.reg.Histogram("hybp_journal_fsync_ms", "journal fsync latency in milliseconds", m.jnFsync)
	}
}

// observeLatency records one job's submit→finish latency.
func (m *metrics) observeLatency(ms int64) {
	m.latency.Observe(float64(ms))
}

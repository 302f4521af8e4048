package sim

import (
	"encoding/json"
	"fmt"

	"hybp/internal/harness"
	"hybp/internal/keys"
	"hybp/internal/pipeline"
	"hybp/internal/secure"
	"hybp/internal/workload"
)

// Runner enumerates experiment points as declarative jobs on a harness
// worker pool. All experiments share one Runner's content-addressed cache,
// so a baseline point used by Table I, Figure 6, and the BRB comparison is
// simulated exactly once per run (and zero times against a warm -cachedir).
type Runner struct {
	h *harness.Runner
}

// NewRunner wraps a harness runner.
func NewRunner(h *harness.Runner) *Runner { return &Runner{h: h} }

// NewDefaultRunner builds a Runner with NumCPU workers and an in-memory
// cache only: no disk cache, no remote offload, no progress reporting.
func NewDefaultRunner() *Runner {
	return NewRunner(harness.MustNew(harness.Options{}))
}

// Stats snapshots the underlying harness counters.
func (r *Runner) Stats() harness.Stats { return r.h.Stats() }

// Close drains outstanding jobs and stops the progress reporter.
func (r *Runner) Close() { r.h.Close() }

// MechSpec is the canonical description of a defense configuration — the
// mechanism plus every experiment-specific variant knob. It is part of a
// job's content address, so two points differing in any field never share
// a cache entry.
type MechSpec struct {
	ID MechanismID
	// FlushCtxOnly disables privilege-change flushing (Figure 6's shaded
	// context-switch-only decomposition of the Flush loss).
	FlushCtxOnly bool `json:",omitempty"`
	// ReplFactor is Replication's extra-storage factor (Figure 8 sweeps
	// it; 1.0 is the full-duplication default set by Mech).
	ReplFactor float64
	// KeysEntries overrides HyBP's randomized-index keys-table size
	// (Table VI); 0 keeps the default.
	KeysEntries int `json:",omitempty"`
	// Tournament swaps the baseline's TAGE-SC-L for the tournament
	// predictor (Section VII-F).
	Tournament bool `json:",omitempty"`
}

// Mech is the plain configuration of a mechanism.
func Mech(id MechanismID) MechSpec {
	m := MechSpec{ID: id}
	if id == MechReplication {
		m.ReplFactor = 1.0
	}
	return m
}

// tag renders the spec into the human-readable part of job keys.
func (m MechSpec) tag() string {
	t := string(m.ID)
	if m.FlushCtxOnly {
		t += "-ctx"
	}
	if m.ID == MechReplication {
		t += fmt.Sprintf("@%g", m.ReplFactor)
	}
	if m.KeysEntries > 0 {
		t += fmt.Sprintf("-k%d", m.KeysEntries)
	}
	if m.Tournament {
		t += "-tourn"
	}
	return t
}

// build instantiates the configured BPU.
func (m MechSpec) build(threads int, seed uint64) secure.BPU {
	cfg := secure.Config{Threads: threads, Seed: seed}
	switch {
	case m.Tournament:
		cfg.UseTournament = true
		return secure.NewBaseline(cfg)
	case m.ID == MechFlush && m.FlushCtxOnly:
		f := secure.NewFlush(cfg)
		f.FlushOnPrivilege = false
		return f
	case m.ID == MechReplication:
		return secure.NewReplication(cfg, m.ReplFactor)
	case m.ID == MechHyBP && m.KeysEntries > 0:
		kc := keys.DefaultConfig(seed)
		kc.Entries = m.KeysEntries
		cfg.Keys = kc
		return secure.NewHyBP(cfg)
	default:
		return newBPU(m.ID, threads, seed)
	}
}

// PointSpec is the canonical, JSON-serializable identity of one simulation
// point. The content-addressed key and the job's private splitmix64 seed
// both derive from it, so results are pure functions of this struct — which
// is also what makes points portable: a cluster worker handed a PointSpec
// recomputes the identical result bit-for-bit (ExecutePoint), so a
// distributed sweep matches a local -j 1 run exactly. Field names and
// declaration order are a stable wire format (they feed harness.Key).
type PointSpec struct {
	Kind     string // "single", "smt", or "solo"
	Bench    string `json:",omitempty"` // single/solo
	A, B     string `json:",omitempty"` // smt mix
	Mech     MechSpec
	Interval uint64
	ExtraFE  int `json:",omitempty"`
	Cycles   uint64
	Warmup   uint64
	RootSeed uint64
}

// Point kinds.
const (
	PointSingle = "single"
	PointSMT    = "smt"
	PointSolo   = "solo"
)

// canon is the spec's canonical JSON encoding — the payload of a cluster
// work item and the bytes the job key is hashed over.
func (sp PointSpec) canon() []byte {
	b, err := json.Marshal(sp)
	if err != nil {
		panic("sim: unmarshalable point spec: " + err.Error())
	}
	return b
}

// runSingle executes a "single" point: one context-switching thread. The
// body is exactly the pre-cluster Single closure, so local and remote
// execution share one code path.
func (sp PointSpec) runSingle() pipeline.ThreadResult {
	bpu := sp.Mech.build(1, sp.RootSeed)
	core := pipeline.DefaultCoreConfig()
	core.ExtraFrontEnd = sp.ExtraFE
	s := pipeline.New(pipeline.Config{
		Core: core,
		BPU:  bpu,
		Threads: []pipeline.ThreadSpec{{
			Workload:      workload.Get(sp.Bench),
			OtherWorkload: partnerOf(sp.Bench),
			Seed:          wlSeed(sp.RootSeed, sp.Bench),
		}},
		SwitchInterval: sp.Interval,
		MaxCycles:      sp.Cycles,
		WarmupCycles:   sp.Warmup,
	})
	return s.Run().Threads[0]
}

// runSMT executes an "smt" point: a Table V mix, both threads measured.
func (sp PointSpec) runSMT() pipeline.Result {
	bpu := sp.Mech.build(2, sp.RootSeed)
	s := pipeline.New(pipeline.Config{
		Core: pipeline.DefaultCoreConfig(),
		BPU:  bpu,
		Threads: []pipeline.ThreadSpec{
			{Workload: workload.Get(sp.A), OtherWorkload: partnerOf(sp.A), Seed: wlSeed(sp.RootSeed, sp.A)},
			{Workload: workload.Get(sp.B), OtherWorkload: partnerOf(sp.B), Seed: wlSeed(sp.RootSeed, sp.B) ^ 0xF00},
		},
		SwitchInterval: sp.Interval,
		MaxCycles:      sp.Cycles,
		WarmupCycles:   sp.Warmup,
	})
	return s.Run()
}

// runSolo executes a "solo" point: one thread, no context switching.
func (sp PointSpec) runSolo() pipeline.ThreadResult {
	bpu := sp.Mech.build(1, sp.RootSeed)
	s := pipeline.New(pipeline.Config{
		Core:         pipeline.DefaultCoreConfig(),
		BPU:          bpu,
		Threads:      []pipeline.ThreadSpec{{Workload: workload.Get(sp.Bench), Seed: wlSeed(sp.RootSeed, sp.Bench)}},
		MaxCycles:    sp.Cycles,
		WarmupCycles: sp.Warmup,
	})
	return s.Run().Threads[0]
}

// validate rejects specs that would panic deep inside the simulator —
// remote workers decode specs off the wire, so unknown names must surface
// as typed errors, not worker crashes.
func (sp PointSpec) validate() error {
	switch sp.Kind {
	case PointSingle, PointSolo:
		if !workload.Has(sp.Bench) {
			return fmt.Errorf("sim: unknown benchmark %q", sp.Bench)
		}
	case PointSMT:
		if !workload.Has(sp.A) {
			return fmt.Errorf("sim: unknown benchmark %q", sp.A)
		}
		if !workload.Has(sp.B) {
			return fmt.Errorf("sim: unknown benchmark %q", sp.B)
		}
	default:
		return fmt.Errorf("sim: unknown point kind %q (valid: %s, %s, %s)",
			sp.Kind, PointSingle, PointSMT, PointSolo)
	}
	if !sp.Mech.Tournament && !ValidMechanism(sp.Mech.ID) {
		return fmt.Errorf("sim: unknown mechanism %q", sp.Mech.ID)
	}
	if sp.Cycles == 0 || sp.Warmup >= sp.Cycles {
		return fmt.Errorf("sim: bad cycle budget (cycles=%d, warmup=%d)", sp.Cycles, sp.Warmup)
	}
	return nil
}

// wlSeed derives a benchmark's synthetic-stream seed from the root seed
// and the benchmark name alone — never from the mechanism, interval, or
// schedule. Every (baseline, mechanism) pair of jobs therefore replays the
// identical instruction stream, so degradation measures the mechanism and
// nothing else; the same invariant pairs a thread's solo run with its SMT
// run for the Hmean fairness metric. (Deriving stream seeds from the full
// per-job key was tried and rejected: it decorrelates the compared streams
// and buries sub-1% mechanism effects in workload noise.) The formula
// matches the pre-harness code exactly, keeping recorded experiment values
// comparable across the refactor.
func wlSeed(root uint64, bench string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(bench); i++ {
		h = (h ^ uint64(bench[i])) * 1099511628211
	}
	return root ^ h
}

// Single schedules a single-thread context-switching measurement of bench
// on the given mechanism at the given switch interval.
func (r *Runner) Single(sc Scale, bench string, m MechSpec, interval uint64) harness.Future[pipeline.ThreadResult] {
	return r.SingleFE(sc, bench, m, interval, 0)
}

// SingleFE is Single with extra front-end pipeline cycles (Figure 2).
func (r *Runner) SingleFE(sc Scale, bench string, m MechSpec, interval uint64, extraFE int) harness.Future[pipeline.ThreadResult] {
	spec := PointSpec{
		Kind: PointSingle, Bench: bench, Mech: m, Interval: interval,
		ExtraFE: extraFE, Cycles: sc.MaxCycles, Warmup: sc.WarmupCycles, RootSeed: sc.Seed,
	}
	key := harness.Key(fmt.Sprintf("single-%s-%s-iv%s", bench, m.tag(), fmtInterval(interval)), spec)
	return harness.SubmitSpec(r.h, key, spec.canon(), spec.runSingle)
}

// SMT schedules an SMT-2 measurement of a Table V mix on the given
// mechanism, both threads measured, context switching on both.
func (r *Runner) SMT(sc Scale, mix workload.Mix, m MechSpec, interval uint64) harness.Future[pipeline.Result] {
	spec := PointSpec{
		Kind: PointSMT, A: mix.A, B: mix.B, Mech: m, Interval: interval,
		Cycles: sc.MaxCycles, Warmup: sc.WarmupCycles, RootSeed: sc.Seed,
	}
	key := harness.Key(fmt.Sprintf("smt-%s+%s-%s-iv%s", mix.A, mix.B, m.tag(), fmtInterval(interval)), spec)
	return harness.SubmitSpec(r.h, key, spec.canon(), spec.runSMT)
}

// Solo schedules a lone, switch-free measurement of bench on the given
// mechanism — the Hmean denominator and the tournament yardstick.
func (r *Runner) Solo(sc Scale, bench string, m MechSpec) harness.Future[pipeline.ThreadResult] {
	spec := PointSpec{
		Kind: PointSolo, Bench: bench, Mech: m,
		Cycles: sc.MaxCycles, Warmup: sc.WarmupCycles, RootSeed: sc.Seed,
	}
	key := harness.Key(fmt.Sprintf("solo-%s-%s", bench, m.tag()), spec)
	return harness.SubmitSpec(r.h, key, spec.canon(), spec.runSolo)
}

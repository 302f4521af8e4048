package sim

import (
	"encoding/json"
	"errors"
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

// The largest variants Validate admits. Build's memory grows with both
// (about 0.4 MB per unit of replication factor, 9.5 MB at 64K keys
// entries), so they bound what one job from outside can allocate; the
// paper's sweeps stop at 3.0 (Figure 8) and 32K entries (Table VI).
const (
	maxReplFactor  = 16
	maxKeysEntries = 1 << 16
)

// Validate rejects a spec Build would panic on or could not allocate: an
// unknown mechanism (a tournament baseline ignores ID), a replication
// factor outside [0, maxReplFactor], or a keys-table size that is neither
// 0 nor a power of two up to maxKeysEntries. Every front end that takes a
// spec from outside the process checks it first.
func (m MechSpec) Validate() error {
	if _, err := ParseMechanism(string(m.ID)); err != nil && !m.Tournament {
		return err
	}
	if !(m.ReplFactor >= 0 && m.ReplFactor <= maxReplFactor) {
		return fmt.Errorf("replication factor %g, want 0 to %d", m.ReplFactor, maxReplFactor)
	}
	if k := m.KeysEntries; k < 0 || k > maxKeysEntries || k&(k-1) != 0 {
		return fmt.Errorf("keys-table entries %d, want 0 or a power of two up to %d", k, maxKeysEntries)
	}
	return nil
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

// Build instantiates the configured BPU on cfg's core. It is the one
// switch from a mechanism name to a secure.BPU: every experiment, the
// hybp facade, and the CLIs build through it. cfg's Threads, Seed, Scale
// and Keys are honoured as given; KeysEntries overrides only
// cfg.Keys.Entries. An unknown ID panics — front ends check names with
// ParseMechanism first.
func (m MechSpec) Build(cfg secure.Config) secure.BPU {
	if m.KeysEntries > 0 {
		if cfg.Keys.Entries == 0 {
			cfg.Keys = keys.DefaultConfig(cfg.Seed)
		}
		cfg.Keys.Entries = m.KeysEntries
	}
	if m.Tournament {
		return secure.NewTournament(cfg)
	}
	switch m.ID {
	case MechBaseline:
		return secure.NewBaseline(cfg)
	case MechFlush:
		f := secure.NewFlush(cfg)
		f.FlushOnPrivilege = !m.FlushCtxOnly
		return f
	case MechPartition:
		return secure.NewPartition(cfg)
	case MechReplication:
		return secure.NewReplication(cfg, m.ReplFactor)
	case MechBRB:
		return secure.NewBRB(cfg)
	case MechHyBP:
		return secure.NewHyBP(cfg)
	}
	panic("sim: unknown mechanism " + string(m.ID))
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
func (sp PointSpec) canon() []byte { return mustMarshal(sp) }

// key is the point's content address: a human-readable prefix naming the
// kind, benchmarks, mechanism and interval, then the spec's hash.
func (sp PointSpec) key() string {
	var prefix string
	switch sp.Kind {
	case PointSMT:
		prefix = fmt.Sprintf("smt-%s+%s-%s-iv%s", sp.A, sp.B, sp.Mech.tag(), fmtInterval(sp.Interval))
	case PointSolo:
		prefix = fmt.Sprintf("solo-%s-%s", sp.Bench, sp.Mech.tag())
	default:
		prefix = fmt.Sprintf("single-%s-%s-iv%s", sp.Bench, sp.Mech.tag(), fmtInterval(sp.Interval))
	}
	return harness.Key(prefix, sp)
}

// mustMarshal is the canonical JSON encoding of a spec struct.
func mustMarshal(spec any) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic("sim: unmarshalable spec: " + err.Error())
	}
	return b
}

// run executes the point: one hardware thread per benchmark (two for an
// "smt" mix, the second's stream seed offset by 0xF00) on the BPU Mech
// names. "single" and "smt" threads time-share with their partner process
// every Interval cycles; a "solo" thread runs alone and never switches.
// Every point kind, locally or on a cluster worker, runs through here.
func (sp PointSpec) run() pipeline.Result {
	benches := []string{sp.Bench}
	if sp.Kind == PointSMT {
		benches = []string{sp.A, sp.B}
	}
	switching := sp.Kind != PointSolo
	cfg := pipeline.Config{Core: pipeline.DefaultCoreConfig(), MaxCycles: sp.Cycles, WarmupCycles: sp.Warmup}
	cfg.Core.ExtraFrontEnd = sp.ExtraFE
	if switching {
		cfg.SwitchInterval = sp.Interval
	}
	for i, b := range benches {
		ts := pipeline.ThreadSpec{Workload: workload.Get(b), Seed: wlSeed(sp.RootSeed, b) ^ uint64(i)*0xF00}
		if switching {
			ts.OtherWorkload = partnerOf(b)
		}
		cfg.Threads = append(cfg.Threads, ts)
	}
	cfg.BPU = sp.Mech.Build(secure.Config{Threads: len(benches), Seed: sp.RootSeed})
	return pipeline.New(cfg).Run()
}

// runThread executes a one-thread ("single" or "solo") point.
func (sp PointSpec) runThread() pipeline.ThreadResult { return sp.run().Threads[0] }

// validate rejects specs that would panic deep inside the simulator —
// remote workers decode specs off the wire, so unknown names must surface
// as typed errors, not worker crashes.
func (sp PointSpec) validate() error {
	switch sp.Kind {
	case PointSingle, PointSolo:
		if !workload.Has(sp.Bench) {
			return specErrorf("unknown benchmark %q", sp.Bench)
		}
	case PointSMT:
		if !workload.Has(sp.A) {
			return specErrorf("unknown benchmark %q", sp.A)
		}
		if !workload.Has(sp.B) {
			return specErrorf("unknown benchmark %q", sp.B)
		}
	default:
		return specErrorf("unknown point kind %q (valid: %s, %s, %s, %s)",
			sp.Kind, PointSingle, PointSMT, PointSolo, PointPoC)
	}
	if err := sp.Mech.Validate(); err != nil {
		return specErrorf("%v", err)
	}
	if sp.Cycles == 0 || sp.Warmup >= sp.Cycles {
		return specErrorf("bad cycle budget (cycles=%d, warmup=%d)", sp.Cycles, sp.Warmup)
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

// point is workload w (its Kind and benchmarks) on m at sc's budget and
// root seed.
func (sc Scale) point(w PointSpec, m MechSpec, interval uint64, extraFE int) PointSpec {
	w.Mech, w.Interval, w.ExtraFE = m, interval, extraFE
	w.Cycles, w.Warmup, w.RootSeed = sc.MaxCycles, sc.WarmupCycles, sc.Seed
	return w
}

// submit schedules sp. A single or solo job's payload stays its one
// ThreadResult; the point returns it as a one-thread Result.
func (r *Runner) submit(sp PointSpec) point {
	if sp.Kind == PointSMT {
		return harness.SubmitSpec(r.h, sp.key(), sp.canon(), sp.run).Result
	}
	f := harness.SubmitSpec(r.h, sp.key(), sp.canon(), sp.runThread)
	return func() (pipeline.Result, error) {
		tr, err := f.Result()
		return pipeline.Result{Threads: []pipeline.ThreadResult{tr}}, err
	}
}

// Single schedules a single-thread context-switching measurement of bench
// on the given mechanism at the given switch interval.
func (r *Runner) Single(sc Scale, bench string, m MechSpec, interval uint64) harness.Future[pipeline.ThreadResult] {
	spec := sc.point(PointSpec{Kind: PointSingle, Bench: bench}, m, interval, 0)
	return harness.SubmitSpec(r.h, spec.key(), spec.canon(), spec.runThread)
}

// Versus runs one point on m and on the unprotected baseline over the
// identical workload streams — the comparison behind every degradation
// hybpsim and the hybpd sim jobs report. A non-empty bench2 runs bench and
// bench2 as an SMT-2 mix; otherwise interval 0 runs bench solo and any
// other interval runs it as a context-switching single thread, returned
// as a one-thread Result. err joins the two jobs' terminal errors.
func (r *Runner) Versus(sc Scale, bench, bench2 string, m MechSpec, interval uint64) (mech, base pipeline.Result, err error) {
	w := PointSpec{Kind: PointSingle, Bench: bench}
	switch {
	case bench2 != "":
		w = PointSpec{Kind: PointSMT, A: bench, B: bench2}
	case interval == 0:
		w.Kind = PointSolo
	}
	p := r.pair(sc, cell{on: []PointSpec{w}, mech: m, iv: interval})
	mech, merr := p.mech[0][0]()
	base, berr := p.base[0][0]()
	return mech, base, errors.Join(merr, berr)
}

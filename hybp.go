// Package hybp is a from-scratch reproduction of "HyBP: Hybrid
// Isolation-Randomization Secure Branch Predictor" (Zhao et al., HPCA
// 2022): a secure branch-prediction unit that physically isolates the
// small upper-level predictor tables per (thread, privilege) context and
// logically isolates the large shared tables by randomizing their indices
// through a QARMA-filled code book and XOR-encrypting their contents, with
// key changes riding on context switches.
//
// The package is a facade over the internal implementation:
//
//   - NewBPU builds any of the paper's defense mechanisms (Baseline,
//     Flush, Partition, Replication, HyBP) behind one BPU interface.
//   - Simulate runs the calibrated front-end timing model over synthetic
//     SPEC CPU2017-like workloads, with SMT-2, context switching, and
//     privilege transitions.
//   - HardwareCost accounts the storage of each mechanism (§VII-D); the
//     paper's tables and figures are regenerated by cmd/hybpexp (see
//     DESIGN.md §3 and EXPERIMENTS.md).
//   - NewAttackHarness/PPP/GEM and the *TrainingPoC functions reproduce
//     the Section VI security analysis and the Section VI-D
//     proof-of-concept attacks.
//
// See examples/ for runnable entry points and cmd/ for the CLIs.
package hybp

import (
	"io"

	"hybp/internal/attack"
	"hybp/internal/keys"
	"hybp/internal/pipeline"
	"hybp/internal/secure"
	"hybp/internal/sim"
	"hybp/internal/trace"
	"hybp/internal/workload"
)

// Core branch-prediction types, shared by simulation and attack code.
type (
	// BPU is the branch-prediction unit interface every defense
	// mechanism implements.
	BPU = secure.BPU
	// Branch is one dynamic branch record.
	Branch = secure.Branch
	// BranchKind classifies a branch (Cond, Jump, Indirect).
	BranchKind = secure.BranchKind
	// Context identifies the executing (thread, privilege, ASID).
	Context = secure.Context
	// Result reports one BPU access.
	Result = secure.Result
	// Privilege is the execution privilege level.
	Privilege = keys.Privilege
)

// Branch kinds and privilege levels.
const (
	Cond     = secure.Cond
	Jump     = secure.Jump
	Indirect = secure.Indirect

	User   = keys.User
	Kernel = keys.Kernel
)

// Mechanism selects a defense mechanism.
type Mechanism = sim.MechanismID

// The defense mechanisms of the paper's Table I, plus BRB (Vougioukas et
// al., HPCA 2019), the retention-buffer competitor of Sections VI/VII-E.
const (
	Baseline    = sim.MechBaseline
	Flush       = sim.MechFlush
	Partition   = sim.MechPartition
	Replication = sim.MechReplication
	BRB         = sim.MechBRB
	HyBP        = sim.MechHyBP
)

// Mechanisms lists all defense mechanisms.
func Mechanisms() []Mechanism { return sim.MechanismIDs() }

// Options configures a BPU instance.
type Options struct {
	// Mechanism selects the defense; default Baseline.
	Mechanism Mechanism
	// Threads is the number of hardware (SMT) threads; default 1.
	Threads int
	// Seed makes every pseudo-random choice reproducible.
	Seed uint64
	// ReplicationOverhead is the extra-storage fraction for the
	// Replication mechanism (1.0 = 100%); default 1.0.
	ReplicationOverhead float64
	// KeysTableEntries sizes HyBP's randomized index keys table
	// (default 1024, the paper's instance).
	KeysTableEntries int
	// KeyChangeThreshold renews HyBP's code book after this many BPU
	// accesses (default 2^27 per the Section VI analysis; 0 keeps the
	// default, negative disables).
	KeyChangeThreshold int64
	// Scale uniformly shrinks or grows every table from the paper's
	// baseline geometry (default 1.0).
	Scale float64
}

// NewBPU builds the configured mechanism. A mechanism not in Mechanisms
// panics.
func NewBPU(o Options) BPU {
	m := sim.Mech(Baseline)
	if o.Mechanism != "" {
		m = sim.Mech(o.Mechanism)
	}
	if o.ReplicationOverhead != 0 {
		m.ReplFactor = o.ReplicationOverhead
	}
	kc := keys.DefaultConfig(o.Seed)
	if o.KeysTableEntries > 0 {
		kc.Entries = o.KeysTableEntries
	}
	switch {
	case o.KeyChangeThreshold > 0:
		kc.AccessThreshold = uint64(o.KeyChangeThreshold)
	case o.KeyChangeThreshold < 0:
		kc.AccessThreshold = 0
	}
	return m.Build(secure.Config{Threads: o.Threads, Seed: o.Seed, Scale: o.Scale, Keys: kc})
}

// HardwareCostReport itemizes HyBP's Section VII-D hardware accounting.
type HardwareCostReport = secure.CostReport

// HardwareCost computes the Section VII-D report for an SMT-2 HyBP
// instance.
func HardwareCost(seed uint64) HardwareCostReport { return sim.HardwareCost(seed) }

// PrintHardwareCost writes the Section VII-D report.
func PrintHardwareCost(w io.Writer, c HardwareCostReport) { sim.PrintCost(w, c) }

// StorageOverheadPercent reports a mechanism's extra storage versus the
// unprotected baseline (Table I's hardware-cost column).
func StorageOverheadPercent(b BPU) float64 { return secure.OverheadPercent(b) }

// ---------------------------------------------------------------------------
// Simulation.
// ---------------------------------------------------------------------------

// Simulation types re-exported from the timing model.
type (
	// CoreConfig parameterizes the front-end timing model.
	CoreConfig = pipeline.CoreConfig
	// ThreadSpec schedules one hardware thread's software contexts.
	ThreadSpec = pipeline.ThreadSpec
	// SimConfig describes one simulation run.
	SimConfig = pipeline.Config
	// SimResult is a whole-run outcome.
	SimResult = pipeline.Result
	// ThreadResult is one hardware thread's measurement.
	ThreadResult = pipeline.ThreadResult
)

// DefaultCoreConfig returns the calibrated core model (paper Table IV).
func DefaultCoreConfig() CoreConfig { return pipeline.DefaultCoreConfig() }

// Simulate runs one simulation to completion.
func Simulate(cfg SimConfig) SimResult { return pipeline.New(cfg).Run() }

// Benchmark returns a named synthetic SPEC CPU2017 workload profile; see
// Benchmarks for the available names.
func Benchmark(name string) workload.Profile { return workload.Get(name) }

// Benchmarks lists the available synthetic benchmark names, sorted.
func Benchmarks() []string { return workload.Names() }

// Mixes returns the paper's Table V SMT-2 pairings.
func Mixes() []workload.Mix { return workload.Mixes() }

// ---------------------------------------------------------------------------
// Traces (record/replay; internal/trace).
// ---------------------------------------------------------------------------

// Trace types re-exported from the trace codec.
type (
	// EventSource produces a branch event stream (live generator or
	// trace replayer).
	EventSource = workload.Source
	// WorkloadEvent is one branch plus its instruction gap.
	WorkloadEvent = workload.Event
	// TraceHeader carries a trace's replay timing hints.
	TraceHeader = trace.Header
	// TraceWriter encodes events; TraceReader decodes them.
	TraceWriter = trace.Writer
	TraceReader = trace.Reader
	// TraceReplayer replays decoded events as an EventSource.
	TraceReplayer = trace.Replayer
)

// NewTraceWriter starts a HYBPTRC1 stream on w.
func NewTraceWriter(w io.Writer, h TraceHeader) (*TraceWriter, error) { return trace.NewWriter(w, h) }

// NewTraceReader opens a HYBPTRC1 stream from r.
func NewTraceReader(r io.Reader) (*TraceReader, error) { return trace.NewReader(r) }

// NewTraceReplayer wraps decoded events as a simulation source.
func NewTraceReplayer(name string, h TraceHeader, events []WorkloadEvent, loop bool) *TraceReplayer {
	return trace.NewReplayer(name, h, events, loop)
}

// RecordTrace captures n events from src into w.
func RecordTrace(w *TraceWriter, src EventSource, n int) error { return trace.Record(w, src, n) }

// NewGenerator builds the live synthetic source for a benchmark profile.
func NewGenerator(p workload.Profile, seed uint64) EventSource { return workload.New(p, seed) }

// ---------------------------------------------------------------------------
// Attacks (Section VI).
// ---------------------------------------------------------------------------

// Attack types re-exported from the attack framework.
type (
	// AttackHarness meters an attacker/victim pair against one BPU.
	AttackHarness = attack.Harness
	// PPPConfig parameterizes eviction-set construction.
	PPPConfig = attack.PPPConfig
	// PPPResult reports one eviction-set attack run.
	PPPResult = attack.PPPResult
	// PoCConfig parameterizes the Section VI-D training attacks.
	PoCConfig = attack.PoCConfig
	// PoCResult reports a training attack.
	PoCResult = attack.PoCResult
)

// NewAttackHarness wires an attacker and a victim context to bpu.
func NewAttackHarness(bpu BPU, attacker, victim Context) *AttackHarness {
	return attack.NewHarness(bpu, attacker, victim)
}

// PPP runs the paper's Algorithm 1 eviction-set construction.
func PPP(h *AttackHarness, cfg PPPConfig, x Branch, gadget []Branch) PPPResult {
	return attack.PPP(h, cfg, x, gadget)
}

// GEM runs the group-elimination eviction-set baseline (Section III-C).
func GEM(h *AttackHarness, cfg PPPConfig, x Branch) PPPResult {
	return attack.GEM(h, cfg, x)
}

// DefaultPoCConfig mirrors the paper's Section VI-D setup.
func DefaultPoCConfig(seed uint64) PoCConfig { return attack.DefaultPoCConfig(seed) }

// BTBTrainingPoC runs the malicious BTB-training proof of concept.
func BTBTrainingPoC(bpu BPU, attacker, victim Context, cfg PoCConfig) PoCResult {
	return attack.BTBTrainingPoC(bpu, attacker, victim, cfg)
}

// PHTTrainingPoC runs the malicious direction-training proof of concept.
func PHTTrainingPoC(bpu BPU, attacker, victim Context, cfg PoCConfig) PoCResult {
	return attack.PHTTrainingPoC(bpu, attacker, victim, cfg)
}

// BlindContentionP evaluates the paper's Equation (1).
func BlindContentionP(n, S, W int) float64 { return attack.BlindContentionP(n, S, W) }

// BlindContentionOptimum sweeps Equation (1) for its crest.
func BlindContentionOptimum(S, W, nMax int) (int, float64) {
	return attack.BlindContentionOptimum(S, W, nMax)
}

// PHTReuseAccesses evaluates the paper's Equation (2).
func PHTReuseAccesses(i, t, c, u int) float64 { return attack.PHTReuseAccesses(i, t, c, u) }

// RSALeakResult reports an end-to-end key-recovery experiment against the
// Section VI-C square-and-multiply victim.
type RSALeakResult = attack.RSALeakResult

// RSAKeyLeakConfig tunes the key-recovery attack.
type RSAKeyLeakConfig = attack.RSAKeyLeakConfig

// RSAKeyLeak attacks a square-and-multiply victim's secret exponent
// through the BTB reuse channel (the paper's Jump-over-ASLR citation).
func RSAKeyLeak(bpu BPU, attacker, victim Context, bits int, seed uint64, cfg RSAKeyLeakConfig) RSALeakResult {
	return attack.RSAKeyLeak(bpu, attacker, victim, bits, seed, cfg)
}

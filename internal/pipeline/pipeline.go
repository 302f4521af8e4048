// Package pipeline is the front-end timing model: it turns BPU behavior
// (mispredictions, BTB misses and level latencies, key-refresh staleness)
// into cycles on a Sunny-Cove-like out-of-order core (paper Table IV),
// with SMT-2 fetch sharing, an OS context-switch schedule, and privilege
// transitions (syscalls and timer interrupts).
//
// The model is cycle accounting rather than micro-op simulation (the paper
// uses Gem5; see DESIGN.md §4/§5): every effect the paper evaluates flows
// through real predictor state — the model only converts prediction events
// to time. Each instruction costs its workload's base CPI; a direction
// misprediction costs the pipeline-restart penalty (plus the Figure 2
// front-end extension when configured); taken-branch BTB misses cost
// fetch-redirect bubbles scaled by where they resolve; BTB hits below L0
// cost the level's extra lookup latency.
package pipeline

import (
	"sync/atomic"

	"hybp/internal/keys"
	"hybp/internal/secure"
	"hybp/internal/workload"
)

// totalCycles accumulates virtual cycles across every Sim.Run in the
// process (updated once per run, not per step). hybpd exports it via
// /metrics so load tests can report simulator-side cycles/sec alongside
// request throughput.
var totalCycles atomic.Uint64

// TotalSimulatedCycles returns the cumulative virtual cycles simulated by
// completed Run calls in this process.
func TotalSimulatedCycles() uint64 { return totalCycles.Load() }

// CoreConfig parameterizes the timing model.
type CoreConfig struct {
	// MispredictPenalty is the pipeline-restart cost of a direction or
	// indirect-target misprediction (the 19-stage Table IV core resolves
	// branches late; 17 cycles is the classic depth-2 figure).
	MispredictPenalty int
	// ExtraFrontEnd lengthens the front end (Figure 2's inline-encryption
	// study): it adds to every restart penalty and redirect.
	ExtraFrontEnd int
	// BTBMissPenalty is the decode-stage redirect cost when a taken
	// branch's target is not supplied by the BTB (direct branches).
	BTBMissPenalty int
	// SMTContention scales cross-thread dilation of base CPI when two
	// threads share the core (calibrated so disabling SMT costs ≈18%,
	// Table I).
	SMTContention float64
	// TimerTickCycles inserts a kernel interrupt burst every so many
	// cycles (privilege round trips that exist even in syscall-light
	// SPEC code). Zero disables ticks.
	TimerTickCycles uint64
	// TimerBurstInstr is the interrupt handler length in instructions.
	TimerBurstInstr int
}

// DefaultCoreConfig returns the calibrated model of the paper's simulated
// core.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{
		MispredictPenalty: 17,
		BTBMissPenalty:    8,
		SMTContention:     1.7,
		TimerTickCycles:   700_000,
		TimerBurstInstr:   1100,
	}
}

// ThreadSpec is one hardware thread's software schedule: the measured
// workload plus the context it alternates with at context switches.
type ThreadSpec struct {
	// Workload is the measured benchmark (synthesized by internal/
	// workload). Ignored when Source is set.
	Workload workload.Profile
	// OtherWorkload is the software context sharing the thread via
	// timeslicing (the paper's context-switch studies); empty Name means
	// the thread never switches. Ignored when OtherSource is set.
	OtherWorkload workload.Profile
	// Source, when non-nil, supplies the measured event stream directly
	// (e.g. a recorded trace replayed via internal/trace).
	Source workload.Source
	// OtherSource optionally supplies the alternate context's stream.
	OtherSource workload.Source
	// Seed drives this thread's generators.
	Seed uint64
}

// Config describes one simulation run.
type Config struct {
	Core CoreConfig
	// BPU is the mechanism under test.
	BPU secure.BPU
	// Threads lists the hardware threads (1 or 2).
	Threads []ThreadSpec
	// SwitchInterval is the context-switch interval in cycles (0 = no
	// context switches).
	SwitchInterval uint64
	// MaxCycles ends the run (per-thread virtual time).
	MaxCycles uint64
	// WarmupCycles excludes the initial window from measurement.
	WarmupCycles uint64
}

// ThreadResult is one hardware thread's measured performance.
type ThreadResult struct {
	Instructions uint64
	Cycles       uint64
	Branches     uint64
	CondBranches uint64
	DirMispred   uint64
	BTBMisses    uint64
	Switches     uint64
	PrivChanges  uint64
	StaleKeyUses uint64
}

// IPC returns instructions per cycle over the measured window.
func (t ThreadResult) IPC() float64 {
	if t.Cycles == 0 {
		return 0
	}
	return float64(t.Instructions) / float64(t.Cycles)
}

// MPKI returns direction mispredictions per kilo-instruction.
func (t ThreadResult) MPKI() float64 {
	if t.Instructions == 0 {
		return 0
	}
	return 1000 * float64(t.DirMispred) / float64(t.Instructions)
}

// Accuracy returns conditional direction prediction accuracy.
func (t ThreadResult) Accuracy() float64 {
	if t.CondBranches == 0 {
		return 0
	}
	return 1 - float64(t.DirMispred)/float64(t.CondBranches)
}

// Result is a whole-run outcome.
type Result struct {
	Threads []ThreadResult
}

// ThroughputIPC is the sum of thread IPCs (the paper's SMT throughput
// metric).
func (r Result) ThroughputIPC() float64 {
	s := 0.0
	for _, t := range r.Threads {
		s += t.IPC()
	}
	return s
}

// threadState is the per-thread simulation state.
type threadState struct {
	spec      ThreadSpec
	gen       workload.Source // active context's event source
	genA      workload.Source // measured workload
	genB      workload.Source // alternate context (nil until the first switch to it)
	hasB      bool            // the thread has an alternate context
	onA       bool
	idx       uint8 // this thread's index in Sim.threads, hoisted off the step path
	asidA     uint16
	asidB     uint16
	priv      keys.Privilege
	cycles    uint64 // virtual time
	instr     uint64
	nextSlice uint64 // next context-switch boundary
	nextTick  uint64 // next timer interrupt
	pending   []workload.Event

	// baseCPI caches gen.Profile().BaseCPI; Profile() returns a struct
	// (with a string header) per call, too heavy for once per branch. It
	// is refreshed whenever gen changes (context switches).
	baseCPI float64

	res     ThreadResult
	measure bool
}

// Sim runs the configured simulation.
type Sim struct {
	cfg     Config
	threads []*threadState
}

// New builds a simulation.
func New(cfg Config) *Sim {
	if cfg.BPU == nil {
		panic("pipeline: BPU is required")
	}
	if len(cfg.Threads) == 0 {
		panic("pipeline: at least one thread is required")
	}
	if cfg.Core.MispredictPenalty == 0 {
		cfg.Core = DefaultCoreConfig()
	}
	s := &Sim{cfg: cfg}
	for i, spec := range cfg.Threads {
		ts := &threadState{
			spec:  spec,
			onA:   true,
			idx:   uint8(i),
			asidA: uint16(10 + i*2),
			asidB: uint16(11 + i*2),
		}
		if spec.Source != nil {
			ts.genA = spec.Source
		} else {
			ts.genA = workload.New(spec.Workload, spec.Seed)
		}
		// A generated alternate context is built at the thread's first
		// context switch (see contextSwitch): a point whose switch interval
		// is not below its budget never reads it.
		ts.genB = spec.OtherSource
		ts.hasB = spec.OtherSource != nil || spec.OtherWorkload.Name != ""
		ts.gen = ts.genA
		ts.baseCPI = ts.gen.Profile().BaseCPI
		if cfg.SwitchInterval > 0 {
			ts.nextSlice = cfg.SwitchInterval
		}
		if cfg.Core.TimerTickCycles > 0 {
			ts.nextTick = cfg.Core.TimerTickCycles
		}
		s.threads = append(s.threads, ts)
	}
	return s
}

// Run executes until every thread reaches MaxCycles and returns per-thread
// results measured after WarmupCycles.
func (s *Sim) Run() Result {
	for {
		ts := s.nextThread()
		if ts == nil {
			break
		}
		s.step(ts)
	}
	res := Result{}
	var simulated uint64
	for _, ts := range s.threads {
		res.Threads = append(res.Threads, ts.res)
		simulated += ts.cycles
	}
	totalCycles.Add(simulated)
	return res
}

// nextThread picks the live thread with the smallest virtual time, which
// interleaves the threads' BPU accesses realistically.
func (s *Sim) nextThread() *threadState {
	var best *threadState
	for _, ts := range s.threads {
		if ts.cycles >= s.cfg.MaxCycles {
			continue
		}
		if best == nil || ts.cycles < best.cycles {
			best = ts
		}
	}
	return best
}

// otherDemand estimates the co-resident threads' issue demand (IPC) for the
// SMT dilation factor.
func (s *Sim) otherDemand(me *threadState) float64 {
	d := 0.0
	for _, ts := range s.threads {
		if ts == me || ts.cycles >= s.cfg.MaxCycles {
			continue
		}
		if ts.cycles > 0 {
			d += float64(ts.instr) / float64(ts.cycles)
		} else {
			d += 1
		}
	}
	return d
}

// step advances one branch event on ts.
func (s *Sim) step(ts *threadState) {
	// Scheduler events first: context switch, then timer tick.
	if ts.nextSlice != 0 && ts.cycles >= ts.nextSlice {
		s.contextSwitch(ts)
		ts.nextSlice += s.cfg.SwitchInterval
	}
	if ts.nextTick != 0 && ts.cycles >= ts.nextTick && len(ts.pending) == 0 {
		ts.pending = ts.gen.TimerBurst(s.cfg.Core.TimerBurstInstr)
		ts.nextTick += s.cfg.Core.TimerTickCycles
	}

	var ev workload.Event
	if len(ts.pending) > 0 {
		ev = ts.pending[0]
		ts.pending = ts.pending[1:]
	} else {
		ev = ts.gen.Next()
	}

	// Privilege transition?
	if ev.Priv != ts.priv {
		s.cfg.BPU.OnPrivilegeChange(ts.idx, ts.priv, ev.Priv, ts.cycles)
		ts.priv = ev.Priv
		ts.res.PrivChanges++
	}

	ctx := secure.Context{Thread: ts.idx, Priv: ts.priv, ASID: ts.asid()}
	res := s.cfg.BPU.Access(ctx, ev.Branch, ts.cycles)

	// Cycle accounting. Single-thread runs have no co-resident demand, so
	// skip the scan (otherDemand is 0 and dilate stays 1 by definition).
	dilate := 1.0
	if len(s.threads) > 1 {
		if n := s.otherDemand(ts); n > 0 {
			u := n / 4 // other thread's use of the shared front end (half of an 8-wide core)
			if u > 1 {
				u = 1
			}
			dilate = 1 + s.cfg.Core.SMTContention*u
		}
	}
	base := ts.baseCPI
	cycles := float64(ev.Gap+1) * base * dilate

	penalty := 0
	if ev.Branch.Kind == secure.Cond && !res.DirCorrect {
		penalty += s.cfg.Core.MispredictPenalty + s.cfg.Core.ExtraFrontEnd
	}
	if ev.Branch.Taken && !res.BTBHit {
		switch ev.Branch.Kind {
		case secure.Indirect, secure.Return:
			// Wrong or missing target resolved at execute: full restart.
			penalty += s.cfg.Core.MispredictPenalty + s.cfg.Core.ExtraFrontEnd
		case secure.Jump, secure.Call:
			penalty += s.cfg.Core.BTBMissPenalty + s.cfg.Core.ExtraFrontEnd/2
		case secure.Cond:
			if res.DirCorrect {
				// Direction right but target unavailable: decode redirect.
				penalty += s.cfg.Core.BTBMissPenalty + s.cfg.Core.ExtraFrontEnd/2
			}
		}
	} else if res.BTBHit && res.BTBLatency > 0 {
		// Hits below L0 deliver the target late: fetch bubbles.
		penalty += res.BTBLatency
	}

	ts.cycles += uint64(cycles+0.5) + uint64(penalty)
	ts.instr += uint64(ev.Gap + 1)

	// Measurement window.
	if ts.cycles >= s.cfg.WarmupCycles && ts.onA {
		ts.res.Instructions += uint64(ev.Gap + 1)
		ts.res.Cycles += uint64(cycles+0.5) + uint64(penalty)
		ts.res.Branches++
		if ev.Branch.Kind == secure.Cond {
			ts.res.CondBranches++
			if !res.DirCorrect {
				ts.res.DirMispred++
			}
		}
		if ev.Branch.Taken && !res.BTBHit {
			ts.res.BTBMisses++
		}
		if res.StaleKey {
			ts.res.StaleKeyUses++
		}
	}
}

func (ts *threadState) asid() uint16 {
	if ts.onA {
		return ts.asidA
	}
	return ts.asidB
}

// contextSwitch flips the thread's software context (A↔B when an alternate
// exists; A→A rescheduling otherwise, which still changes keys/flushes per
// mechanism, as a switch to another process and back would at double the
// interval).
func (s *Sim) contextSwitch(ts *threadState) {
	ts.res.Switches++
	if ts.hasB {
		ts.onA = !ts.onA
		if ts.onA {
			ts.gen = ts.genA
		} else {
			if ts.genB == nil {
				ts.genB = workload.New(ts.spec.OtherWorkload, ts.spec.Seed^0xB)
			}
			ts.gen = ts.genB
		}
		ts.baseCPI = ts.gen.Profile().BaseCPI
	}
	ts.pending = nil
	// Return to user mode with the new context.
	if ts.priv != keys.User {
		s.cfg.BPU.OnPrivilegeChange(ts.idx, ts.priv, keys.User, ts.cycles)
		ts.priv = keys.User
	}
	s.cfg.BPU.OnContextSwitch(ts.idx, ts.asid(), ts.cycles)
}

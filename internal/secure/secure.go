// Package secure implements the defense mechanisms the paper evaluates,
// behind one BPU interface. The unprotected baseline is Flush with both
// flush triggers off, Partition is Replication at 0% extra storage, and
// HyBP runs the same predictor-set access through its keyed tables; BRB
// and the tournament yardstick (Section VII-F) complete the set. The
// pipeline timing model (internal/pipeline) and the attack framework
// (internal/attack) are both written against the BPU interface, so every
// mechanism is exercised by identical structural code — the comparison
// the paper's Tables I/III and Figures 5-8 rest on.
package secure

import (
	"hybp/internal/keys"
	"hybp/internal/ras"
	"hybp/internal/tage"
)

// Context identifies the executing software/hardware context of a BPU
// access.
type Context struct {
	// Thread is the hardware (SMT) thread.
	Thread uint8
	// Priv is the privilege level.
	Priv keys.Privilege
	// ASID is the software context (address space) identifier.
	ASID uint16
}

// id folds the (thread, privilege) combination into the owner tag used for
// statistics and partition flushing.
func (c Context) id() uint16 { return uint16(c.Thread)<<1 | uint16(c.Priv) }

func (c Context) keysID() keys.ContextID {
	return keys.ContextID{Thread: c.Thread, Priv: c.Priv}
}

// BranchKind classifies a dynamic branch.
type BranchKind uint8

// Branch kinds.
const (
	// Cond is a conditional direct branch: it consults the direction
	// predictor, and the BTB when taken.
	Cond BranchKind = iota
	// Jump is an unconditional direct branch: BTB only; a miss is caught
	// at decode (cheap redirect).
	Jump
	// Indirect is an indirect branch: BTB only; a miss or wrong target is
	// caught at execute (full penalty).
	Indirect
	// Call is a direct call: BTB for the target plus a push of the return
	// address onto the return address stack.
	Call
	// Return pops its predicted target from the return address stack; a
	// wrong or missing prediction is caught at execute.
	Return
)

// Branch is one dynamic branch record.
type Branch struct {
	PC     uint64
	Target uint64
	Taken  bool
	Kind   BranchKind
}

// Result reports what the BPU did for one branch; the pipeline model turns
// it into cycles.
type Result struct {
	// DirPred is the predicted direction (conditional branches).
	DirPred bool
	// DirCorrect reports whether the direction prediction matched.
	DirCorrect bool
	// BTBHit reports a BTB hit whose decoded target matched the actual
	// target (a hit that decodes to garbage under a different content key
	// is not a useful hit and is reported as a miss).
	BTBHit bool
	// RawHit reports that some entry's tag matched, regardless of whether
	// the decoded target was useful; the front end would speculate using
	// the decoded bits. Attack harnesses sense this (it is what the
	// timing channel exposes) and malicious training rides on it.
	RawHit bool
	// PredictedTarget is the decoded target the front end would fetch
	// from on a RawHit (zero otherwise).
	PredictedTarget uint64
	// BTBLevel is the hierarchy level that hit (-1 on miss).
	BTBLevel int
	// BTBLatency is the hit level's extra lookup latency in cycles.
	BTBLatency int
	// StaleKey reports that a HyBP code-book refresh was in flight and
	// this access read a stale key.
	StaleKey bool
}

// BPU is the interface every defense mechanism implements.
type BPU interface {
	// Access performs a full BPU access (direction predictor and/or BTB)
	// for branch b in context ctx at cycle now, trains the structures
	// with the actual outcome, and reports what the front end saw.
	Access(ctx Context, b Branch, now uint64) Result
	// OnContextSwitch notifies that hardware thread's software context is
	// being replaced by incoming at cycle now.
	OnContextSwitch(thread uint8, incoming uint16, now uint64)
	// OnPrivilegeChange notifies a privilege transition on thread.
	OnPrivilegeChange(thread uint8, from, to keys.Privilege, now uint64)
	// StorageBits is the total predictor storage of this mechanism.
	StorageBits() int
	// BaselineBits is the storage of the unprotected baseline at the same
	// core configuration; OverheadPercent derives from both.
	BaselineBits() int
	// Name identifies the mechanism in experiment output.
	Name() string
}

// OverheadPercent is the hardware cost of b relative to the unprotected
// baseline, in percent (paper Table I's "hardware cost" column).
func OverheadPercent(b BPU) float64 {
	base := b.BaselineBits()
	if base == 0 {
		return 0
	}
	return 100 * float64(b.StorageBits()-base) / float64(base)
}

// Config describes the core the mechanisms protect.
type Config struct {
	// Threads is the number of hardware (SMT) threads: 1 or 2 in the
	// paper's experiments.
	Threads int
	// Seed drives every pseudo-random choice for reproducibility.
	Seed uint64
	// Keys configures HyBP's key management; zero value means
	// keys.DefaultConfig(Seed).
	Keys keys.Config
	// Scale shrinks (or grows) every table uniformly from the paper's
	// baseline geometry; zero means 1.0. Attack experiments use small
	// scales to keep eviction-set searches fast and extrapolate
	// analytically (Section VI).
	Scale float64
}

func (c Config) withDefaults() Config {
	if c.Threads <= 0 {
		c.Threads = 1
	}
	if c.Keys.Entries == 0 {
		c.Keys = keys.DefaultConfig(c.Seed)
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// geometryFor derives the (possibly scaled) baseline geometry for c.
func (c Config) geometryFor() geometry {
	g := baseGeometry(c.Seed)
	if c.Scale != 1 {
		g = g.scaled(c.Scale)
	}
	return g
}

// contexts enumerates the (thread, privilege) combinations of the core.
func (c Config) contexts() []Context {
	out := make([]Context, 0, c.Threads*2)
	for th := 0; th < c.Threads; th++ {
		for _, p := range []keys.Privilege{keys.User, keys.Kernel} {
			out = append(out, Context{Thread: uint8(th), Priv: p})
		}
	}
	return out
}

// front is the state one front end keeps outside the predictor tables:
// its direction-predictor history and its return address stack. Flush and
// BRB keep one per hardware thread; Replication keeps one per (thread,
// privilege) context, beside that context's predictor set.
type front struct {
	hist  *tage.History
	stack *ras.Stack
}

// rasDepth is the return address stack capacity (typical cores hold
// 16-64 entries).
const rasDepth = 32

func newFront(t *tage.Tage) front {
	return front{hist: t.NewHistory(), stack: ras.New(rasDepth)}
}

// perThreadFronts builds one front per hardware thread over t.
func perThreadFronts(t *tage.Tage, threads int) []front {
	fs := make([]front, threads)
	for i := range fs {
		fs[i] = newFront(t)
	}
	return fs
}

func (f front) reset() {
	f.hist.Reset()
	f.stack.Flush()
}

package secure

import (
	"hybp/internal/keys"
)

// Flush is the flush-on-switch mechanism: the whole predictor is cleared at
// every context switch and privilege change (paper Table I row 1). It
// protects a single-threaded core but not SMT, where the co-resident thread
// observes and pollutes shared state between flushes. With both triggers
// off it is the unprotected baseline (NewBaseline).
type Flush struct {
	name   string
	ps     *predictorSet
	fronts []front // per hardware thread
	bits   int     // predictor storage, the baseline's

	// FlushOnPrivilege can be disabled to decompose Figure 6's shaded
	// bars (context-switch flush cost vs privilege-change flush cost).
	FlushOnPrivilege bool
	// FlushOnContext likewise isolates the privilege component.
	FlushOnContext bool

	ContextFlushes   uint64
	PrivilegeFlushes uint64
}

// NewFlush builds the flush mechanism.
func NewFlush(cfg Config) *Flush {
	f := newShared(cfg, "flush")
	f.FlushOnPrivilege, f.FlushOnContext = true, true
	return f
}

// NewBaseline builds the unprotected shared BPU: every context reads and
// writes the same tables under the same plain mapping — the configuration
// every attack in Section II assumes. It is Flush that never flushes: a
// context switch resets only the switching thread's history and return
// address stack, and all table state survives (the residual-state benefit
// the protected mechanisms give up).
func NewBaseline(cfg Config) *Flush { return newShared(cfg, "baseline") }

func newShared(cfg Config, name string) *Flush {
	cfg = cfg.withDefaults()
	g := cfg.geometryFor()
	ps := newPredictorSet(g, cfg.Seed)
	return &Flush{name: name, ps: ps, fronts: perThreadFronts(ps.tage, cfg.Threads), bits: g.storageBits()}
}

// Access implements BPU.
func (f *Flush) Access(ctx Context, br Branch, now uint64) Result {
	fr := f.fronts[ctx.Thread]
	return f.ps.access(br, fr.hist, fr.stack, ctx.id(), 0)
}

// OnContextSwitch implements BPU: flush everything.
func (f *Flush) OnContextSwitch(thread uint8, incoming uint16, now uint64) {
	f.fronts[thread].reset()
	if !f.FlushOnContext {
		return
	}
	f.ps.flushAll()
	f.ContextFlushes++
}

// OnPrivilegeChange implements BPU: flush everything.
func (f *Flush) OnPrivilegeChange(thread uint8, from, to keys.Privilege, now uint64) {
	if !f.FlushOnPrivilege {
		return
	}
	f.ps.flushAll()
	f.PrivilegeFlushes++
}

// StorageBits implements BPU.
func (f *Flush) StorageBits() int { return f.bits }

// BaselineBits implements BPU.
func (f *Flush) BaselineBits() int { return f.bits }

// Name implements BPU.
func (f *Flush) Name() string { return f.name }

var _ BPU = (*Flush)(nil)

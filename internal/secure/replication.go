package secure

import (
	"fmt"

	"hybp/internal/keys"
)

// Replication is the scaled-up physical-isolation mechanism of the paper's
// Table I and Figure 8: the predictor storage is grown by an overhead
// fraction and then divided among the (thread, privilege) combinations.
// At overhead 0 it is Partition (NewPartition); at 100% on SMT-2 each
// context gets half a baseline predictor (the Table I "Replication" row);
// Figure 8 sweeps the overhead from 0 to 300% looking for the point where
// its performance matches HyBP's (≈240% in the paper).
//
// Each context's share is an independent scaled-down predictor set, which
// is storage-equivalent to dividing one structure by index ranges and
// keeps every mechanism on the same structural code path.
type Replication struct {
	name string
	// parts and fronts are indexed by Context.id() (dense in
	// [0, 2*Threads)); slices keep the per-access fetch off the map-hash
	// path. Separate sets have separate TAGE geometries, so each context
	// keeps its own history.
	parts  []*predictorSet
	fronts []front
	bits   int // storage of all the shares
	base   int // baseline storage for overhead accounting
}

// NewPartition builds the static physical-isolation mechanism (paper
// Table I row 2): the fixed-size BPU divided among the (thread, privilege)
// combinations, each context using only its share. Secure in SMT, but
// every context permanently runs on a fraction of the predictor — the
// capacity loss that costs 6.3% on average and up to 19.4% on
// branch-hungry benchmarks. It is Replication at 0% extra storage.
func NewPartition(cfg Config) *Replication { return newReplication(cfg, 0, "partition") }

// NewReplication builds the mechanism with the given extra-storage
// fraction (1.0 = 100% overhead).
func NewReplication(cfg Config, overhead float64) *Replication {
	if overhead < 0 {
		panic("secure: replication overhead must be non-negative")
	}
	return newReplication(cfg, overhead, fmt.Sprintf("replication+%d%%", int(overhead*100+0.5)))
}

func newReplication(cfg Config, overhead float64, name string) *Replication {
	cfg = cfg.withDefaults()
	r := &Replication{
		name:   name,
		parts:  make([]*predictorSet, cfg.Threads*2),
		fronts: make([]front, cfg.Threads*2),
	}
	full := cfg.geometryFor()
	share := full.scaled((1 + overhead) / float64(cfg.Threads*2))
	for _, ctx := range cfg.contexts() {
		ps := newPredictorSet(share, cfg.Seed^uint64(ctx.id())<<32)
		r.parts[ctx.id()] = ps
		r.fronts[ctx.id()] = newFront(ps.tage)
	}
	r.bits = len(r.parts) * share.storageBits()
	r.base = full.storageBits()
	return r
}

// Access implements BPU.
func (r *Replication) Access(ctx Context, br Branch, now uint64) Result {
	id := ctx.id()
	fr := r.fronts[id]
	return r.parts[id].access(br, fr.hist, fr.stack, id, 0)
}

// OnContextSwitch implements BPU: the switching thread's shares (both
// privilege levels) are flushed — their content belongs to the outgoing
// software context.
func (r *Replication) OnContextSwitch(thread uint8, incoming uint16, now uint64) {
	for priv := keys.User; priv <= keys.Kernel; priv++ {
		id := Context{Thread: thread, Priv: priv}.id()
		r.parts[id].flushAll()
		r.fronts[id].reset()
	}
}

// OnPrivilegeChange implements BPU: the shares already separate privilege
// levels, so there is nothing to do.
func (r *Replication) OnPrivilegeChange(thread uint8, from, to keys.Privilege, now uint64) {}

// StorageBits implements BPU.
func (r *Replication) StorageBits() int { return r.bits }

// BaselineBits implements BPU.
func (r *Replication) BaselineBits() int { return r.base }

// Name implements BPU.
func (r *Replication) Name() string { return r.name }

var _ BPU = (*Replication)(nil)

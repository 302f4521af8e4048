package secure

import (
	"hybp/internal/btb"
	"hybp/internal/ras"
	"hybp/internal/tage"
)

// geometry captures a BPU sizing: the three BTB levels and the direction
// predictor. Partition and Replication derive scaled geometries from the
// baseline; Figure 8's storage sweep scales the last BTB level smoothly
// through its way count and the direct-mapped TAGE tables by power-of-two
// steps (documented quantization; see DESIGN.md).
type geometry struct {
	l0, l1, l2 btb.Config
	tage       tage.Config
}

// baseGeometry is the paper's baseline: Zen2 three-level BTB and the
// TAGE-SC-L instance of Figure 3.
func baseGeometry(seed uint64) geometry {
	cfgs := btb.ZenConfig(seed)
	return geometry{l0: cfgs[0], l1: cfgs[1], l2: cfgs[2], tage: tage.DefaultConfig(seed)}
}

// scaled returns the geometry at a capacity fraction frac of the baseline
// (frac = 0.25 for a 4-way partition, 0.5 for SMT-2 replication, and the
// Figure 8 sweep in between and beyond).
func (g geometry) scaled(frac float64) geometry {
	if frac <= 0 {
		panic("secure: geometry scale must be positive")
	}
	out := g
	out.l0.Sets = clampPow2(int(float64(g.l0.Sets)*frac+0.5), 1, 1<<20)
	out.l1.Sets = clampPow2(int(float64(g.l1.Sets)*frac+0.5), 1, 1<<20)
	// Last level: power-of-two set count bounded by the baseline's, with
	// the way count absorbing the remainder for a smooth Figure 8 sweep.
	target := float64(g.l2.Sets*g.l2.Ways) * frac
	sets := clampPow2(int(float64(g.l2.Sets)*frac+0.5), 1, g.l2.Sets)
	ways := int(target/float64(sets) + 0.5)
	if ways < 1 {
		ways = 1
	}
	out.l2.Sets, out.l2.Ways = sets, ways
	specs := make([]tage.TableSpec, len(g.tage.Tables))
	copy(specs, g.tage.Tables)
	for i := range specs {
		specs[i].Entries = clampPow2(int(float64(specs[i].Entries)*frac+0.5), 16, 1<<20)
	}
	out.tage.Tables = specs
	out.tage.BimodalEntries = clampPow2(int(float64(g.tage.BimodalEntries)*frac+0.5), 64, 1<<24)
	// Shrink the SC and loop structures along with the tagged tables.
	out.tage.SCBiasEntries = clampPow2(int(float64(g.tage.SCBiasEntries)*frac+0.5), 64, 1<<20)
	out.tage.SCGEntries = clampPow2(int(float64(g.tage.SCGEntries)*frac+0.5), 64, 1<<20)
	out.tage.LoopSets = clampPow2(int(float64(g.tage.LoopSets)*frac+0.5), 2, 1<<16)
	return out
}

// clampPow2 rounds n down to a power of two within [lo, hi].
func clampPow2(n, lo, hi int) int {
	if n < lo {
		n = lo
	}
	if n > hi {
		n = hi
	}
	p := 1
	for p*2 <= n {
		p *= 2
	}
	if p < lo {
		p = lo
	}
	return p
}

// storageBits is the storage of one predictor set of geometry g: its three
// BTB levels, TAGE's tagged, SC and loop tables, and the bimodal base.
func (g geometry) storageBits() int {
	return g.l0.StorageBits() + g.l1.StorageBits() + g.l2.StorageBits() +
		g.tage.StorageBits() + tage.BimodalStorageBits(g.tage.BimodalEntries)
}

// predictorSet bundles one BTB hierarchy and one TAGE instance. Flush
// builds one for the whole core, Replication one per (thread, privilege)
// context, and HyBP one view per context over its keyed hierarchy and
// shared TAGE.
type predictorSet struct {
	btb  *btb.Hierarchy
	tage *tage.Tage
}

func newPredictorSet(g geometry, seed uint64) *predictorSet {
	tg := g.tage
	tg.Seed = seed
	return &predictorSet{btb: newBTBHierarchy(g), tage: tage.New(tg)}
}

// newBTBHierarchy builds g's three BTB levels under the plain mapping.
func newBTBHierarchy(g geometry) *btb.Hierarchy {
	return btb.NewHierarchy([]*btb.Table{btb.New(g.l0), btb.New(g.l1), btb.New(g.l2)}, btbTagBits, nil)
}

// btbTagBits is the partial tag width of BTB entries (the T of the Section
// VI-A reuse analysis; N+T > 30 with the stored partial target).
const btbTagBits = 16

// access runs one branch through the set: direction prediction for
// conditionals, return-stack pop/push for returns and calls, and BTB
// lookup/fill for taken branches. contentKey encodes stored targets (zero
// for every mechanism but HyBP).
func (ps *predictorSet) access(b Branch, hs *tage.History, stack *ras.Stack, owner uint16, contentKey uint64) Result {
	res := Result{BTBLevel: -1, DirCorrect: true}

	if b.Kind == Cond {
		res.DirPred = ps.tage.Access(b.PC, b.Taken, hs)
		res.DirCorrect = res.DirPred == b.Taken
	}

	// Returns are predicted by the return address stack, not the BTB.
	if b.Kind == Return {
		if addr, ok := stack.Pop(); ok {
			res.RawHit = true
			res.PredictedTarget = addr
			res.BTBHit = addr == b.Target
		}
		return res
	}

	// The BTB tracks taken control flow: any taken branch looks up and
	// fills; a not-taken conditional does not touch it.
	if b.Taken {
		stored, level, hit := ps.btb.Lookup(b.PC)
		if hit {
			res.RawHit = true
			res.BTBLevel = level
			res.BTBLatency = ps.btb.Level(level).Latency()
			res.PredictedTarget = stored ^ contentKey
			if res.PredictedTarget == b.Target {
				res.BTBHit = true
			}
		}
		if !res.BTBHit {
			ps.btb.Insert(b.PC, b.Target^contentKey, owner)
		}
	}

	// Calls push their return address after the target lookup.
	if b.Kind == Call && b.Taken {
		stack.Push(b.PC + 4)
	}
	return res
}

func (ps *predictorSet) flushAll() {
	ps.btb.Flush()
	ps.tage.Flush()
}

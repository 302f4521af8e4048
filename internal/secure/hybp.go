package secure

import (
	"hybp/internal/btb"
	"hybp/internal/keys"
	"hybp/internal/ras"
	"hybp/internal/tage"
)

// HyBP is the paper's hybrid isolation-randomization mechanism:
//
//   - The small upper-level structures — L0 BTB, L1 BTB, and the bimodal
//     base of TAGE — are physically replicated per (thread, privilege)
//     combination and the swapped-out thread's copies are flushed at
//     context switches (the shaded tables of paper Figure 3).
//   - The large structures — the last-level BTB and TAGE's tagged tables —
//     are shared by all contexts but logically isolated: each context's
//     accesses are remapped through its randomized index keys table (the
//     QARMA-filled code book of internal/keys) and contents are XOR-encoded
//     with the context's content key.
//   - Keys change at context switches and on a BPU-access-count threshold
//     (Sections V-D and VI-C); code-book refills run in the background and
//     never stall the pipeline — racing lookups simply read stale keys.
//
// The physically isolated upper levels also *filter* the information flow
// reaching the shared tables (Section V-B), which is what lets the keys
// live as long as an OS time slice.
type HyBP struct {
	cfg Config
	km  *keys.Manager

	// Shared large structures.
	l2     *btb.Table
	shared *tage.Tage

	// Per-(thread, privilege) private structures and hierarchy wiring,
	// indexed by Context.id() (= thread<<1 | priv, dense in [0, 2*Threads)).
	// A dense slice instead of a map keeps the per-access context fetch a
	// single indexed load — the map hash was measurable on the hot path.
	privPart []*hybpContext

	hist []*tage.History // per hardware thread, over the shared TAGE

	now uint64 // current cycle, visible to the key-function closures

	base int // baseline storage for overhead accounting

	// StaleKeyAccesses counts accesses served under a stale key during a
	// code-book refill (Table VI's effect).
	StaleKeyAccesses uint64
}

// hybpContext is the per-(thread, privilege) slice of HyBP state. The
// return address stack joins the physically isolated small structures
// (the paper's Exynos survey notes the RAS as a protected structure;
// HyBP's taxonomy puts small tables on the isolation side).
type hybpContext struct {
	// ps is the context's view of the predictor: its keyed BTB hierarchy
	// and the shared TAGE, accessed by the same predictorSet.access as
	// every other mechanism.
	ps     predictorSet
	l0, l1 *btb.Table
	base   *tage.Bimodal
	stack  *ras.Stack
	keys   *keys.Table
	// tagKeys holds, per TAGE tagged table, the slice of the content key
	// XORed into that table's tags; it is recomputed when the keys table's
	// epoch moves past tagEpoch.
	tagKeys  []uint64
	tagEpoch uint64
}

// NewHyBP builds the mechanism.
func NewHyBP(cfg Config) *HyBP {
	cfg = cfg.withDefaults()
	g := cfg.geometryFor()
	h := &HyBP{
		cfg:      cfg,
		km:       keys.NewManager(cfg.Keys),
		l2:       btb.New(g.l2),
		privPart: make([]*hybpContext, cfg.Threads*2),
	}
	tg := g.tage
	tg.Seed = cfg.Seed
	h.shared = tage.New(tg)
	h.hist = make([]*tage.History, cfg.Threads)
	for i := range h.hist {
		h.hist[i] = h.shared.NewHistory()
	}

	for _, ctx := range cfg.contexts() {
		kt := h.km.Table(ctx.keysID())
		hc := &hybpContext{
			l0:    btb.New(withSeed(g.l0, cfg.Seed^uint64(ctx.id())<<40)),
			l1:    btb.New(withSeed(g.l1, cfg.Seed^uint64(ctx.id())<<41)),
			base:  tage.NewBimodal(g.tage.BimodalEntries),
			stack: ras.New(rasDepth),
			keys:  kt,
		}
		// Levels 0 and 1 are private plain tables; the shared level 2 is
		// keyed by the context's code book for the index and its content
		// key for the tag.
		hierarchy := btb.NewHierarchy([]*btb.Table{hc.l0, hc.l1, h.l2}, btbTagBits,
			func(pc uint64) (uint64, uint64) {
				return kt.Key(pc, h.now), kt.ContentKey() & (1<<btbTagBits - 1)
			})
		hc.ps = predictorSet{btb: hierarchy, tage: h.shared}
		hc.tagKeys = make([]uint64, h.shared.NumTables())
		h.privPart[ctx.id()] = hc
	}
	h.base = g.storageBits()
	return h
}

func withSeed(c btb.Config, seed uint64) btb.Config {
	c.Seed = seed
	return c
}

// Access implements BPU.
func (h *HyBP) Access(ctx Context, br Branch, now uint64) Result {
	h.now = now
	hc := h.privPart[ctx.id()]

	// Count the access toward the key-change threshold (speculative and
	// non-speculative accesses both count, Section VI-C). hc.keys is the
	// manager's table for this context, so the counter is bumped directly
	// instead of re-resolving the table by ContextID per access. A
	// threshold refresh only rolls the shared tables' keys; no private
	// flushes are required for security here.
	if hc.keys.NoteAccess() {
		hc.keys.Refresh(now)
	}
	stale := hc.keys.KeyStale(br.PC, now)
	if stale {
		h.StaleKeyAccesses++
	}

	// The shared TAGE serves every context: point it at this context's
	// bimodal base and keys before a conditional reads it.
	if br.Kind == Cond {
		h.shared.SetBase(hc.base)
		h.shared.SetKeys(hc.keys.Window(br.PC, now, len(hc.tagKeys)), hc.tageTagKeys())
	}
	res := hc.ps.access(br, h.hist[ctx.Thread], hc.stack, ctx.id(), hc.keys.ContentKey())
	res.StaleKey = stale
	return res
}

// tageTagKeys returns the context's TAGE tag keys for the current epoch.
//
// TAGE's tagged tables are randomized per table from the same key material
// as the BTB (BTB and PHT share the random tables, Section VI-C): table ti
// XORs code-book key Key(pc+2ti) into its index — Window's ti-th key, so
// the per-table tweak decorrelates the thirty tables — and bits ti%32 up
// of the content key, cut to 11 bits, into its tag.
func (hc *hybpContext) tageTagKeys() []uint64 {
	if e := hc.keys.Epoch(); e != hc.tagEpoch {
		ck := hc.keys.ContentKey()
		for ti := range hc.tagKeys {
			hc.tagKeys[ti] = ck >> (uint(ti) % 32) & 0x7FF
		}
		hc.tagEpoch = e
	}
	return hc.tagKeys
}

// OnContextSwitch implements BPU: the incoming software context gets fresh
// keys for both privilege levels of the thread (making the outgoing
// context's shared-table state unreachable), and the thread's private
// upper-level tables are flushed.
func (h *HyBP) OnContextSwitch(thread uint8, incoming uint16, now uint64) {
	h.now = now
	h.km.OnContextSwitch(thread, incoming, 0, now)
	for priv := keys.User; priv <= keys.Kernel; priv++ {
		hc := h.privPart[Context{Thread: thread, Priv: priv}.id()]
		hc.l0.Flush()
		hc.l1.Flush()
		hc.base.Flush()
		hc.stack.Flush()
	}
	h.hist[thread].Reset()
}

// OnPrivilegeChange implements BPU: nothing to do — each privilege level
// owns separate keys and separate private tables, which is exactly HyBP's
// advantage over Flush on privilege-change-heavy execution.
func (h *HyBP) OnPrivilegeChange(thread uint8, from, to keys.Privilege, now uint64) {}

// StorageBits implements BPU: shared L2 + shared tagged tables + per-
// context private copies + code books. (The QARMA engine's area is added
// by the Section VII-D cost report, which is about area rather than SRAM
// bits.)
func (h *HyBP) StorageBits() int {
	n := h.l2.StorageBits() + h.shared.StorageBits()
	for _, hc := range h.privPart {
		n += hc.l0.StorageBits() + hc.l1.StorageBits() + hc.base.StorageBits() + hc.keys.StorageBits()
	}
	return n
}

// BaselineBits implements BPU.
func (h *HyBP) BaselineBits() int { return h.base }

// Name implements BPU.
func (h *HyBP) Name() string { return "hybp" }

// KeysManager exposes key-management internals for tests and experiments.
func (h *HyBP) KeysManager() *keys.Manager { return h.km }

// SharedL2 exposes the shared last-level BTB for information-flow
// statistics and attack harnesses.
func (h *HyBP) SharedL2() *btb.Table { return h.l2 }

// HierarchyFor exposes a context's BTB hierarchy (attack harnesses need the
// attacker's own view of the shared table).
func (h *HyBP) HierarchyFor(ctx Context) *btb.Hierarchy {
	return h.privPart[ctx.id()].ps.btb
}

var _ BPU = (*HyBP)(nil)

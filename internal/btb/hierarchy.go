package btb

import "math/bits"

// LastLevelKey returns what a context's key material XORs into the plain
// (set index, tag) pair of pc at the hierarchy's last level. HyBP passes
// one per context: its code-book key for the index and its content key for
// the tag, so the shared last level is logically isolated while the upper
// levels stay plain private tables (paper Section V, Figure 3).
type LastLevelKey func(pc uint64) (index, tag uint64)

// Hierarchy is a multi-level exclusive ("victim") BTB: lookups probe levels
// in order; a hit at a lower level moves the entry to L0, demoting victims
// downward; entries evicted from level i are demoted to level i+1; entries
// evicted from the last level are dropped.
//
// The exclusive organization produces the access-filtering property HyBP's
// security argument relies on (paper Section V-B): branches that hit in the
// small upper levels never probe the shared last level, so the information
// flow an attacker can observe there is reduced to the upper levels' miss
// rate. LastLevelProbeRate exposes that flow directly.
type Hierarchy struct {
	levels  []*Table
	shifts  []uint // log2 of each level's set count
	tagMask uint64
	lastKey LastLevelKey
}

// NewHierarchy assembles a hierarchy over tables (ordered from L0 to the
// last level) with tagBits-wide tags. lastKey, when non-nil, keys the last
// level's mapping; nil leaves every level plain.
func NewHierarchy(tables []*Table, tagBits uint, lastKey LastLevelKey) *Hierarchy {
	if len(tables) == 0 {
		panic("btb: hierarchy needs at least one level")
	}
	h := &Hierarchy{
		levels:  tables,
		shifts:  make([]uint, len(tables)),
		tagMask: 1<<tagBits - 1,
		lastKey: lastKey,
	}
	for i, t := range tables {
		h.shifts[i] = uint(bits.TrailingZeros(uint(t.Sets())))
	}
	return h
}

// mapping returns pc's (set index, tag) pair at level lv. The plain
// mapping takes the index from the PC bits above the 2-byte instruction
// alignment and the tag from the bits above the index, truncated to the tag
// width: the conventional BTB arrangement the attacks in the literature
// assume. The index is left unmasked; the table reduces it to its sets.
func (h *Hierarchy) mapping(lv int, pc uint64) (index, tag uint64) {
	index = pc >> 1
	tag = (index >> h.shifts[lv]) & h.tagMask
	if h.lastKey != nil && lv == len(h.levels)-1 {
		ki, kt := h.lastKey(pc)
		index ^= ki
		tag ^= kt
	}
	return index, tag
}

// Levels returns the number of levels.
func (h *Hierarchy) Levels() int { return len(h.levels) }

// Level returns the table at level i.
func (h *Hierarchy) Level(i int) *Table { return h.levels[i] }

// Lookup probes levels in order for pc. On a hit it returns the stored
// (possibly content-encoded) target, the hit level, and true, after moving
// the entry to L0 (for hits below L0). The caller decodes the target with
// its content key; a wrong-key decode yields a useless target, which is the
// logical-isolation property randomized contents provide.
func (h *Hierarchy) Lookup(pc uint64) (target uint64, level int, hit bool) {
	for lv, tbl := range h.levels {
		idx, tag := h.mapping(lv, pc)
		if e, ok := tbl.Lookup(idx, tag); ok {
			if lv > 0 {
				tbl.Invalidate(idx, tag)
				h.insertAt(0, e)
			}
			return e.Target, lv, true
		}
	}
	return 0, -1, false
}

// Probe reports whether pc is present at any level without statistics or
// migration side effects. Tests and oracles use it; attack code must not.
func (h *Hierarchy) Probe(pc uint64) (level int, ok bool) {
	for lv, tbl := range h.levels {
		idx, tag := h.mapping(lv, pc)
		if _, hit := tbl.Probe(idx, tag); hit {
			return lv, true
		}
	}
	return -1, false
}

// Insert records a resolved taken branch: the entry lands in L0 and
// displaced entries cascade down. Stale copies of the same branch at lower
// levels are invalidated to preserve exclusivity.
func (h *Hierarchy) Insert(pc, target uint64, owner uint16) {
	for lv := 1; lv < len(h.levels); lv++ {
		idx, tag := h.mapping(lv, pc)
		h.levels[lv].Invalidate(idx, tag)
	}
	h.insertAt(0, Entry{PC: pc, Target: target, Owner: owner})
}

// insertAt places e at level lv, demoting eviction victims down the
// hierarchy. Victim remapping uses the entry's PC metadata under the
// *current* last-level key; entries belonging to stale contexts are flushed
// at context switches by the mechanisms before the mapping changes matter
// (see internal/secure).
func (h *Hierarchy) insertAt(lv int, e Entry) {
	for ; lv < len(h.levels); lv++ {
		idx, tag := h.mapping(lv, e.PC)
		e.Tag = tag
		victim, evicted := h.levels[lv].Insert(idx, e)
		if !evicted {
			return
		}
		e = victim
	}
	// Victim of the last level is dropped.
}

// Flush invalidates every level.
func (h *Hierarchy) Flush() {
	for _, t := range h.levels {
		t.Flush()
	}
}

// LastLevelProbeRate returns the fraction of hierarchy lookups that reached
// the last level — the "information flow" m the paper's Section V-B filter
// argument quantifies.
func (h *Hierarchy) LastLevelProbeRate() float64 {
	if len(h.levels) < 2 {
		return 1
	}
	first := h.levels[0].Stats().Lookups
	if first == 0 {
		return 0
	}
	last := h.levels[len(h.levels)-1].Stats().Lookups
	return float64(last) / float64(first)
}

// StorageBits sums the storage of all levels.
func (h *Hierarchy) StorageBits() int {
	n := 0
	for _, t := range h.levels {
		n += t.StorageBits()
	}
	return n
}

// ResetStats clears statistics at every level.
func (h *Hierarchy) ResetStats() {
	for _, t := range h.levels {
		t.ResetStats()
	}
}

// ZenConfig returns the three-level geometry of the paper's baseline BTB
// (AMD Zen2): 16-entry L0, 512-entry L1, 7K-entry L2 (1024 sets × 7 ways),
// 60-bit entries, random replacement, with per-level latencies used by the
// timing model (L0 same-cycle, L1 one bubble, L2 four cycles per Table IV).
func ZenConfig(seed uint64) []Config {
	return []Config{
		{Sets: 8, Ways: 2, Latency: 0, EntryBits: 60, Seed: seed ^ 0x10},
		{Sets: 256, Ways: 2, Latency: 1, EntryBits: 60, Seed: seed ^ 0x11},
		{Sets: 1024, Ways: 7, Latency: 4, EntryBits: 60, Seed: seed ^ 0x12},
	}
}

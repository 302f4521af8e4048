// Package btb implements the branch target buffer substrate: a generic
// set-associative predictor table and the three-level BTB hierarchy of the
// paper's baseline core (AMD Zen2: 16-entry L0, 512-entry L1, 7K-entry L2,
// 60-bit entries, random replacement — paper Figure 3 caption).
//
// The table is deliberately mechanism-agnostic: callers hand it a (set
// index, tag) pair and encode the stored content themselves. The hierarchy
// maps a branch PC to that pair with the plain PC bit split at every level;
// the only variation is HyBP's, which XORs a context's code-book key into
// the shared last level's index and its content key into that level's tag
// (paper Section V, Figure 3). Every other mechanism in internal/secure
// isolates by owning separate tables, so one structure serves every
// defense under test.
package btb

import "hybp/internal/rng"

// Entry is one BTB entry. Tag and Target are the stored (possibly encoded)
// bits that matching and prediction use. PC and Owner are simulator
// metadata: PC lets the hierarchy controller recompute per-level mappings
// when an entry migrates between levels, and Owner attributes evictions for
// the information-flow statistics. Neither participates in matching — the
// security experiments interact with the table only through Index/Tag, as
// hardware would.
type Entry struct {
	Tag    uint64
	Target uint64
	PC     uint64
	Owner  uint16
	// gen is the table generation the entry was written in; a stored
	// entry is valid only while gen equals its table's generation.
	gen uint32
}

// Config describes a set-associative table.
type Config struct {
	// Sets is the number of sets; it must be a power of two.
	Sets int
	// Ways is the set associativity. A full set evicts a random way, as
	// the Zen2 baseline does ("using random replacement", Figure 3
	// caption).
	Ways int
	// Latency is the lookup latency in cycles, consumed by the pipeline
	// model (Table IV gives 4 cycles for the large BTB).
	Latency int
	// EntryBits is the storage size of one entry (60 bits in the Zen2
	// baseline); used for the Section VII-D hardware-cost accounting.
	EntryBits int
	// Seed seeds the replacement RNG stream.
	Seed uint64
}

// StorageBits returns the storage cost in bits of a table of this geometry.
func (c Config) StorageBits() int { return c.Sets * c.Ways * c.EntryBits }

// Stats accumulates table activity.
type Stats struct {
	Lookups   uint64
	Hits      uint64
	Misses    uint64
	Inserts   uint64
	Updates   uint64
	Evictions uint64
	// CrossOwnerEvictions counts evictions where the victim entry belonged
	// to a different owner than the inserting context — the contention an
	// attacker senses in a contention-based attack.
	CrossOwnerEvictions uint64
	// Flushes counts whole-table flushes.
	Flushes uint64
}

// Table is a set-associative predictor table.
//
// Validity is a generation stamp: a stored entry is valid only while its
// stamp equals the table's generation, so Flush invalidates every entry by
// advancing the generation instead of writing each one. Empty ways hold
// stamp 0, which no generation takes.
type Table struct {
	cfg   Config
	sets  [][]Entry
	gen   uint32 // stamp of the valid entries; never 0
	rand  *rng.Rand
	stats Stats
}

// New builds a Table from cfg. It panics if the geometry is invalid, since
// a bad geometry is a programming error in an experiment definition.
func New(cfg Config) *Table {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("btb: Sets must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("btb: Ways must be positive")
	}
	t := &Table{
		cfg:  cfg,
		sets: make([][]Entry, cfg.Sets),
		gen:  1,
		rand: rng.New(cfg.Seed ^ 0xb7b7b7b7),
	}
	backing := make([]Entry, cfg.Sets*cfg.Ways)
	for i := range t.sets {
		t.sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways : (i+1)*cfg.Ways]
	}
	return t
}

// Config returns the table geometry.
func (t *Table) Config() Config { return t.cfg }

// Sets returns the number of sets.
func (t *Table) Sets() int { return t.cfg.Sets }

// Ways returns the associativity.
func (t *Table) Ways() int { return t.cfg.Ways }

// Entries returns the total entry count.
func (t *Table) Entries() int { return t.cfg.Sets * t.cfg.Ways }

// StorageBits returns the table's storage cost in bits.
func (t *Table) StorageBits() int { return t.cfg.StorageBits() }

// Latency returns the lookup latency in cycles.
func (t *Table) Latency() int { return t.cfg.Latency }

// Stats returns a copy of the accumulated statistics.
func (t *Table) Stats() Stats { return t.stats }

// ResetStats zeroes the statistics without touching table contents.
func (t *Table) ResetStats() { t.stats = Stats{} }

// maskIndex reduces an arbitrary index to the set range.
func (t *Table) maskIndex(index uint64) int {
	return int(index & uint64(t.cfg.Sets-1))
}

// Lookup searches the set at index for tag. On a hit it returns the entry.
func (t *Table) Lookup(index, tag uint64) (Entry, bool) {
	t.stats.Lookups++
	set, gen := t.sets[t.maskIndex(index)], t.gen
	for w := range set {
		if set[w].gen == gen && set[w].Tag == tag {
			t.stats.Hits++
			return set[w], true
		}
	}
	t.stats.Misses++
	return Entry{}, false
}

// Probe is Lookup without statistics side effects; used by oracles and
// invariant checks that must not perturb measurements.
func (t *Table) Probe(index, tag uint64) (Entry, bool) {
	set, gen := t.sets[t.maskIndex(index)], t.gen
	for w := range set {
		if set[w].gen == gen && set[w].Tag == tag {
			return set[w], true
		}
	}
	return Entry{}, false
}

// Insert places e at index. If an entry with the same tag exists it is
// updated in place. Otherwise a victim way is chosen (an invalid way if one
// exists, else a random one) and the displaced entry, if any, is returned
// with evicted=true.
func (t *Table) Insert(index uint64, e Entry) (victim Entry, evicted bool) {
	set, gen := t.sets[t.maskIndex(index)], t.gen
	e.gen = gen

	for w := range set {
		if set[w].gen == gen && set[w].Tag == e.Tag {
			set[w] = e
			t.stats.Updates++
			return Entry{}, false
		}
	}
	// Prefer an invalid way: an empty one or one written before a flush.
	for w := range set {
		if set[w].gen != gen {
			set[w] = e
			t.stats.Inserts++
			return Entry{}, false
		}
	}
	w := t.rand.Intn(t.cfg.Ways)
	victim = set[w]
	set[w] = e
	t.stats.Inserts++
	t.stats.Evictions++
	if victim.Owner != e.Owner {
		t.stats.CrossOwnerEvictions++
	}
	return victim, true
}

// Invalidate removes the entry matching tag at index, reporting whether an
// entry was removed.
func (t *Table) Invalidate(index, tag uint64) bool {
	set, gen := t.sets[t.maskIndex(index)], t.gen
	for w := range set {
		if set[w].gen == gen && set[w].Tag == tag {
			set[w] = Entry{}
			return true
		}
	}
	return false
}

// Flush invalidates every entry in O(1) by advancing the generation.
// Only when the generation wraps, once in 2^32−1 flushes, are the entries
// cleared, so that no stamp written before the wrap can match again.
func (t *Table) Flush() {
	t.gen++
	if t.gen == 0 {
		for _, set := range t.sets {
			clear(set)
		}
		t.gen = 1
	}
	t.stats.Flushes++
}

// ValidCount returns the number of valid entries; used by tests and the
// occupancy statistics.
func (t *Table) ValidCount() int {
	n := 0
	for _, set := range t.sets {
		n += t.occupancy(set)
	}
	return n
}

// SetOccupancy returns the number of valid entries in the set at index.
func (t *Table) SetOccupancy(index uint64) int {
	return t.occupancy(t.sets[t.maskIndex(index)])
}

func (t *Table) occupancy(set []Entry) int {
	n := 0
	for w := range set {
		if set[w].gen == t.gen {
			n++
		}
	}
	return n
}

// ForEach calls fn for every valid entry. Iteration order is deterministic
// (set-major, way-minor).
func (t *Table) ForEach(fn func(set, way int, e Entry)) {
	for s, set := range t.sets {
		for w := range set {
			if set[w].gen == t.gen {
				fn(s, w, set[w])
			}
		}
	}
}

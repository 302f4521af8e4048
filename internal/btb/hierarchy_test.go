package btb

import (
	"testing"

	"hybp/internal/rng"
)

func smallHierarchy(seed uint64) *Hierarchy {
	cfgs := []Config{
		{Sets: 2, Ways: 2, EntryBits: 60, Seed: seed},
		{Sets: 8, Ways: 2, EntryBits: 60, Seed: seed + 1},
		{Sets: 32, Ways: 4, EntryBits: 60, Seed: seed + 2},
	}
	tables := make([]*Table, len(cfgs))
	for i, c := range cfgs {
		tables[i] = New(c)
	}
	return NewHierarchy(tables, 16, nil)
}

// zenHierarchy builds the baseline three-level BTB with 16-bit tags, its
// last level keyed by lastKey (nil for plain).
func zenHierarchy(seed uint64, lastKey LastLevelKey) *Hierarchy {
	cfgs := ZenConfig(seed)
	tables := make([]*Table, len(cfgs))
	for i, c := range cfgs {
		tables[i] = New(c)
	}
	return NewHierarchy(tables, 16, lastKey)
}

func TestHierarchyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty hierarchy did not panic")
		}
	}()
	NewHierarchy(nil, 4, nil)
}

func TestHierarchyInsertHitsAtL0(t *testing.T) {
	h := smallHierarchy(1)
	h.Insert(0x1000, 0x2000, 1)
	target, level, hit := h.Lookup(0x1000)
	if !hit || level != 0 || target != 0x2000 {
		t.Fatalf("lookup = (%#x, %d, %v)", target, level, hit)
	}
}

func TestHierarchyMiss(t *testing.T) {
	h := smallHierarchy(2)
	if _, _, hit := h.Lookup(0x5555); hit {
		t.Fatal("hit on empty hierarchy")
	}
}

func TestDemotionCascade(t *testing.T) {
	// Fill far beyond L0 capacity (4 entries): older entries must remain
	// findable at lower levels via demotion.
	h := smallHierarchy(3)
	const n = 40
	for i := 0; i < n; i++ {
		h.Insert(uint64(0x1000+i*2), uint64(i), 1)
	}
	found := 0
	for i := 0; i < n; i++ {
		if _, ok := h.Probe(uint64(0x1000 + i*2)); ok {
			found++
		}
	}
	// Total capacity is 4+16+128; all 40 should fit (random replacement in
	// L2 may drop a few due to set conflicts, but most must survive).
	if found < n*3/4 {
		t.Fatalf("only %d/%d entries survive demotion cascade", found, n)
	}
	if h.Level(1).ValidCount()+h.Level(2).ValidCount() == 0 {
		t.Fatal("no entries demoted below L0")
	}
}

func TestPromotionOnLowerLevelHit(t *testing.T) {
	h := smallHierarchy(4)
	// Push entry 0x1000 down by inserting conflicting entries.
	h.Insert(0x1000, 0xAA, 1)
	for i := 1; i < 20; i++ {
		h.Insert(uint64(0x1000+i*2), uint64(i), 1)
	}
	lvBefore, ok := h.Probe(0x1000)
	if !ok {
		t.Skip("entry randomly evicted entirely; acceptable under random replacement")
	}
	if lvBefore == 0 {
		t.Fatalf("entry unexpectedly still at L0")
	}
	_, lv, hit := h.Lookup(0x1000)
	if !hit || lv != lvBefore {
		t.Fatalf("lookup = level %d hit=%v, want hit at level %d", lv, hit, lvBefore)
	}
	lvAfter, ok := h.Probe(0x1000)
	if !ok || lvAfter != 0 {
		t.Fatalf("after promoting lookup, entry at level %d (ok=%v), want 0", lvAfter, ok)
	}
}

func TestExclusivityAfterReinsert(t *testing.T) {
	h := smallHierarchy(5)
	h.Insert(0x1000, 1, 1)
	for i := 1; i < 20; i++ { // demote 0x1000
		h.Insert(uint64(0x1000+i*2), uint64(i), 1)
	}
	h.Insert(0x1000, 2, 1) // reinsert with new target
	// The branch must resolve to the new target and exist exactly once.
	target, _, hit := h.Lookup(0x1000)
	if !hit || target != 2 {
		t.Fatalf("lookup after reinsert = (%d, %v), want (2, true)", target, hit)
	}
	count := 0
	for lv := 0; lv < h.Levels(); lv++ {
		h.Level(lv).ForEach(func(_, _ int, e Entry) {
			if e.PC == 0x1000 {
				count++
			}
		})
	}
	if count != 1 {
		t.Fatalf("entry appears %d times across levels, want 1", count)
	}
}

func TestLastLevelProbeRateFiltering(t *testing.T) {
	// A small hot working set should be filtered by L0/L1 almost
	// completely: the last level must see a tiny fraction of probes. This
	// is the Section V-B information-flow filter HyBP's key-change
	// schedule depends on.
	h := smallHierarchy(6)
	hot := []uint64{0x1000, 0x1002}
	for _, pc := range hot {
		h.Insert(pc, pc+1, 1)
	}
	h.ResetStats()
	r := rng.New(7)
	for i := 0; i < 10000; i++ {
		pc := hot[r.Intn(len(hot))]
		if _, _, hit := h.Lookup(pc); !hit {
			t.Fatal("hot entry missed")
		}
	}
	if rate := h.LastLevelProbeRate(); rate != 0 {
		t.Fatalf("last-level probe rate = %v, want 0 for L0-resident set", rate)
	}

	// A huge working set must push the rate up.
	h2 := smallHierarchy(8)
	for i := 0; i < 4000; i++ {
		pc := uint64(0x1000 + r.Intn(2000)*2)
		if _, _, hit := h2.Lookup(pc); !hit {
			h2.Insert(pc, pc+1, 1)
		}
	}
	if rate := h2.LastLevelProbeRate(); rate < 0.3 {
		t.Fatalf("last-level probe rate = %v for thrashing set, want substantial", rate)
	}
}

func TestLastLevelKeyChangesVisibility(t *testing.T) {
	// Changing the last-level key (as a HyBP key refresh does) must make
	// the entries placed under the old key unreachable, the logical
	// isolation property, while the plain upper levels stay visible.
	var keyIdx, keyTag uint64
	h := zenHierarchy(1, func(uint64) (uint64, uint64) { return keyIdx, keyTag })
	last := h.Levels() - 1
	for i := 0; i < 100; i++ {
		pc := uint64(0x4000 + i*2)
		idx, tag := h.mapping(last, pc)
		h.Level(last).Insert(idx, Entry{Tag: tag, PC: pc, Target: 9})
	}
	h.Insert(0x9000, 7, 1) // lands in the plain L0
	visible := func() int {
		n := 0
		for i := 0; i < 100; i++ {
			if lv, ok := h.Probe(uint64(0x4000 + i*2)); ok && lv == last {
				n++
			}
		}
		return n
	}
	if n := visible(); n != 100 {
		t.Fatalf("setup: %d/100 visible under the original key", n)
	}
	keyIdx, keyTag = 0x155, 0x3FFF
	if n := visible(); n != 0 {
		t.Fatalf("%d/100 entries still visible after the key change", n)
	}
	if lv, ok := h.Probe(0x9000); !ok || lv != 0 {
		t.Fatalf("L0 entry at level %d (ok=%v) after the key change, want 0", lv, ok)
	}
}

func TestPlainMappingDistinctTags(t *testing.T) {
	// The plain mapping takes the set from the PC bits above the 2-byte
	// alignment and the tag from the bits above the set: two PCs that
	// share a set must differ in tag, or the BTB would alias wildly.
	h := NewHierarchy([]*Table{New(Config{Sets: 1024, Ways: 2, Seed: 1})}, 16, nil)
	a, b := uint64(0x1000), uint64(0x1000+2048*2) // same set after >>1 and mask
	h.Insert(a, 1, 1)
	h.Insert(b, 2, 1)
	if n := h.Level(0).SetOccupancy(a >> 1); n != 2 {
		t.Fatalf("set %d holds %d entries, want both PCs", (a>>1)&1023, n)
	}
	if _, ok := h.Level(0).Probe(a>>1, (a>>11)&0xFFFF); !ok {
		t.Fatal("entry not at the plain (index, tag) of its PC")
	}
	for pc, want := range map[uint64]uint64{a: 1, b: 2} {
		if got, _, hit := h.Lookup(pc); !hit || got != want {
			t.Fatalf("lookup %#x = (%d, %v), want (%d, true)", pc, got, hit, want)
		}
	}
}

func TestZenConfigGeometry(t *testing.T) {
	cfgs := ZenConfig(0)
	entries := []int{16, 512, 7168}
	for i, c := range cfgs {
		if c.Sets*c.Ways != entries[i] {
			t.Errorf("level %d: %d entries, want %d", i, c.Sets*c.Ways, entries[i])
		}
		if c.EntryBits != 60 {
			t.Errorf("level %d: entry bits %d, want 60", i, c.EntryBits)
		}
	}
	// Total BTB storage: 7696 entries × 60 bits ≈ 56.4 KB.
	h := zenHierarchy(0, nil)
	if got := h.StorageBits(); got != (16+512+7168)*60 {
		t.Errorf("storage = %d bits", got)
	}
}

func BenchmarkHierarchyLookupHit(b *testing.B) {
	h := zenHierarchy(1, nil)
	h.Insert(0x1000, 0x2000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Lookup(0x1000)
	}
}

func BenchmarkHierarchyInsert(b *testing.B) {
	h := zenHierarchy(1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(uint64(0x1000+(i%5000)*2), uint64(i), 1)
	}
}

func TestExclusivityPropertyUnderRandomOps(t *testing.T) {
	// Property: a branch never occupies two hierarchy levels at once,
	// regardless of the interleaving of inserts and lookups.
	h := smallHierarchy(77)
	r := rng.New(77)
	pcs := make([]uint64, 96)
	for i := range pcs {
		pcs[i] = uint64(0x1000 + i*2)
	}
	countLevels := func(pc uint64) int {
		n := 0
		for lv := 0; lv < h.Levels(); lv++ {
			h.Level(lv).ForEach(func(_, _ int, e Entry) {
				if e.PC == pc {
					n++
				}
			})
		}
		return n
	}
	for step := 0; step < 6000; step++ {
		pc := pcs[r.Intn(len(pcs))]
		if r.Bool(0.5) {
			h.Insert(pc, pc+1, 1)
		} else {
			h.Lookup(pc)
		}
		if step%500 == 0 {
			for _, p := range pcs {
				if n := countLevels(p); n > 1 {
					t.Fatalf("step %d: pc %#x present at %d levels", step, p, n)
				}
			}
		}
	}
}

func TestHierarchyCapacityNeverExceeded(t *testing.T) {
	h := smallHierarchy(78)
	r := rng.New(78)
	capTotal := 0
	for lv := 0; lv < h.Levels(); lv++ {
		capTotal += h.Level(lv).Entries()
	}
	for i := 0; i < 5000; i++ {
		pc := uint64(0x1000 + r.Intn(4096)*2)
		h.Insert(pc, pc+1, 1)
	}
	total := 0
	for lv := 0; lv < h.Levels(); lv++ {
		total += h.Level(lv).ValidCount()
	}
	if total > capTotal {
		t.Fatalf("valid entries %d exceed capacity %d", total, capTotal)
	}
}

package btb

import "testing"

// BenchmarkHierarchyLookupInsert times the three-level victim hierarchy on
// a Zen2 geometry under a looping PC working set: mostly L0/L1 hits with
// steady misses and demotion cascades — the simulator's BTB hot path.
func BenchmarkHierarchyLookupInsert(b *testing.B) {
	h := zenHierarchy(1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := 0x4000_0000 + uint64(i%800)*64
		if _, _, hit := h.Lookup(pc); !hit {
			h.Insert(pc, pc+0x400, 1)
		}
	}
}

// BenchmarkTableLookup isolates the single-level set scan.
func BenchmarkTableLookup(b *testing.B) {
	t := New(Config{Sets: 1024, Ways: 7, EntryBits: 60, Seed: 1})
	for i := 0; i < 7*1024; i++ {
		pc := uint64(i) * 64
		t.Insert(pc>>1, Entry{Tag: pc >> 11, Target: pc + 4, PC: pc})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(i%4096) * 64
		t.Lookup(pc>>1, pc>>11)
	}
}

// TestHierarchyZeroAllocs pins BTB lookup+insert (including the demotion
// cascade and eviction path) allocation-free.
func TestHierarchyZeroAllocs(t *testing.T) {
	h := zenHierarchy(1, nil)
	// Warm with a working set that overflows L0 and L1 so lookups migrate
	// entries and inserts evict.
	for i := 0; i < 20_000; i++ {
		pc := 0x4000_0000 + uint64(i%800)*64
		if _, _, hit := h.Lookup(pc); !hit {
			h.Insert(pc, pc+0x400, 1)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(8192, func() {
		pc := 0x4000_0000 + uint64(i%800)*64
		i++
		if _, _, hit := h.Lookup(pc); !hit {
			h.Insert(pc, pc+0x400, 1)
		}
	})
	if avg != 0 {
		t.Fatalf("hierarchy lookup+insert allocates %.2f objects/op, want 0", avg)
	}
}

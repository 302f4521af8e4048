package btb

import (
	"math"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	return Config{Sets: 16, Ways: 4, EntryBits: 60, Seed: 1}
}

func TestNewValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Sets: 0, Ways: 1},
		{Sets: 3, Ways: 1},
		{Sets: -4, Ways: 1},
		{Sets: 16, Ways: 0},
	} {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestInsertLookup(t *testing.T) {
	tbl := New(testConfig())
	tbl.Insert(3, Entry{Tag: 77, Target: 0xCAFE, PC: 100, Owner: 1})
	e, ok := tbl.Lookup(3, 77)
	if !ok || e.Target != 0xCAFE || e.Owner != 1 {
		t.Fatalf("lookup = %+v, %v", e, ok)
	}
	if _, ok := tbl.Lookup(3, 78); ok {
		t.Fatal("unexpected hit for wrong tag")
	}
	if _, ok := tbl.Lookup(4, 77); ok {
		t.Fatal("unexpected hit for wrong set")
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	tbl := New(testConfig())
	tbl.Insert(5, Entry{Tag: 9, Target: 1})
	tbl.Insert(5, Entry{Tag: 9, Target: 2})
	if tbl.ValidCount() != 1 {
		t.Fatalf("valid = %d, want 1 (update in place)", tbl.ValidCount())
	}
	e, _ := tbl.Lookup(5, 9)
	if e.Target != 2 {
		t.Fatalf("target = %d, want updated 2", e.Target)
	}
	if s := tbl.Stats(); s.Updates != 1 || s.Inserts != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestEvictionOnFullSet(t *testing.T) {
	tbl := New(testConfig()) // 4 ways
	for i := 0; i < 4; i++ {
		if _, ev := tbl.Insert(0, Entry{Tag: uint64(i), Target: uint64(i)}); ev {
			t.Fatalf("unexpected eviction filling way %d", i)
		}
	}
	victim, ev := tbl.Insert(0, Entry{Tag: 99, Target: 99})
	if !ev {
		t.Fatal("no eviction from full set")
	}
	if victim.Tag > 3 {
		t.Fatalf("victim tag = %d, want one of the original 4", victim.Tag)
	}
	if tbl.SetOccupancy(0) != 4 {
		t.Fatalf("occupancy = %d, want 4", tbl.SetOccupancy(0))
	}
}

func TestCrossOwnerEvictionStat(t *testing.T) {
	tbl := New(Config{Sets: 1, Ways: 2, Seed: 3})
	tbl.Insert(0, Entry{Tag: 1, Owner: 1})
	tbl.Insert(0, Entry{Tag: 2, Owner: 1})
	tbl.Insert(0, Entry{Tag: 3, Owner: 2}) // evicts an owner-1 entry
	if s := tbl.Stats(); s.CrossOwnerEvictions != 1 {
		t.Fatalf("CrossOwnerEvictions = %d, want 1", s.CrossOwnerEvictions)
	}
}

func TestIndexMasking(t *testing.T) {
	tbl := New(testConfig())
	tbl.Insert(16+3, Entry{Tag: 7, Target: 42}) // wraps to set 3
	if e, ok := tbl.Lookup(3, 7); !ok || e.Target != 42 {
		t.Fatal("index not masked to set range")
	}
}

func TestFlush(t *testing.T) {
	tbl := New(testConfig())
	for i := 0; i < 32; i++ {
		tbl.Insert(uint64(i), Entry{Tag: uint64(i), Target: 1})
	}
	if tbl.ValidCount() == 0 {
		t.Fatal("setup failed")
	}
	tbl.Flush()
	if tbl.ValidCount() != 0 {
		t.Fatalf("valid after flush = %d", tbl.ValidCount())
	}
}

func TestInvalidate(t *testing.T) {
	tbl := New(testConfig())
	tbl.Insert(1, Entry{Tag: 5, Target: 9})
	if !tbl.Invalidate(1, 5) {
		t.Fatal("invalidate missed existing entry")
	}
	if tbl.Invalidate(1, 5) {
		t.Fatal("invalidate hit removed entry")
	}
	if _, ok := tbl.Lookup(1, 5); ok {
		t.Fatal("entry survived invalidate")
	}
}

func TestRandomReplacementCoversAllWays(t *testing.T) {
	tbl := New(Config{Sets: 1, Ways: 4, Seed: 7})
	for i := 0; i < 4; i++ {
		tbl.Insert(0, Entry{Tag: uint64(i)})
	}
	evictedTags := make(map[uint64]bool)
	for i := 0; i < 400; i++ {
		victim, ev := tbl.Insert(0, Entry{Tag: uint64(100 + i)})
		if !ev {
			t.Fatal("expected eviction")
		}
		if victim.Tag < 4 || i > 50 {
			evictedTags[victim.Tag%4] = true
		}
	}
	// With 400 random victims, all way positions should have been chosen.
	if len(evictedTags) < 4 {
		t.Fatalf("random replacement only touched %d way classes", len(evictedTags))
	}
}

func TestStatsAccounting(t *testing.T) {
	tbl := New(testConfig())
	tbl.Insert(0, Entry{Tag: 1})
	tbl.Lookup(0, 1)
	tbl.Lookup(0, 2)
	s := tbl.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Fatalf("stats = %+v", s)
	}
	tbl.ResetStats()
	if tbl.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero stats")
	}
}

func TestProbeHasNoSideEffects(t *testing.T) {
	tbl := New(testConfig())
	tbl.Insert(0, Entry{Tag: 1})
	before := tbl.Stats()
	tbl.Probe(0, 1)
	tbl.Probe(0, 2)
	if tbl.Stats() != before {
		t.Fatal("Probe mutated statistics")
	}
}

func TestStorageBits(t *testing.T) {
	tbl := New(Config{Sets: 1024, Ways: 7, EntryBits: 60})
	if got := tbl.StorageBits(); got != 1024*7*60 {
		t.Fatalf("StorageBits = %d", got)
	}
}

func TestLookupInsertProperty(t *testing.T) {
	// Property: after Insert(idx, e), Lookup(idx, e.Tag) hits with e's
	// target, for arbitrary idx/tag/target.
	tbl := New(Config{Sets: 64, Ways: 4, Seed: 5})
	f := func(idx, tag, target uint64) bool {
		tbl.Insert(idx, Entry{Tag: tag, Target: target})
		e, ok := tbl.Lookup(idx, tag)
		return ok && e.Target == target
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestForEachDeterministic(t *testing.T) {
	tbl := New(testConfig())
	tbl.Insert(2, Entry{Tag: 1, PC: 10})
	tbl.Insert(1, Entry{Tag: 2, PC: 20})
	var order []uint64
	tbl.ForEach(func(set, way int, e Entry) { order = append(order, e.PC) })
	if len(order) != 2 || order[0] != 20 || order[1] != 10 {
		t.Fatalf("ForEach order = %v, want set-major [20 10]", order)
	}
}

// TestFlushHidesEveryEntry: after the O(1) Flush no read path sees an
// entry written before it, and Insert reuses the stale ways exactly as it
// would the empty ways of a new table — the same ways, no evictions and no
// replacement draws — so a flushed table evolves like a new one.
func TestFlushHidesEveryEntry(t *testing.T) {
	tbl, fresh := New(testConfig()), New(testConfig())
	for i := 0; i < 200; i++ {
		tbl.Insert(uint64(i), Entry{Tag: uint64(i % 7), Target: uint64(i), PC: uint64(i)})
	}
	tbl.Flush()
	for i := 0; i < 200; i++ {
		if _, ok := tbl.Lookup(uint64(i), uint64(i%7)); ok {
			t.Fatalf("Lookup hit entry %d after flush", i)
		}
		if _, ok := tbl.Probe(uint64(i), uint64(i%7)); ok {
			t.Fatalf("Probe hit entry %d after flush", i)
		}
		if tbl.Invalidate(uint64(i), uint64(i%7)) {
			t.Fatalf("Invalidate removed entry %d after flush", i)
		}
	}
	if n := tbl.ValidCount(); n != 0 {
		t.Fatalf("ValidCount after flush = %d", n)
	}
	tbl.ForEach(func(set, way int, e Entry) { t.Fatalf("ForEach visited set %d way %d after flush", set, way) })
	// The flushed table burned no replacement draws; let both tables
	// draw from here on and compare them after every insert.
	state := *tbl.rand
	fresh.rand = &state
	for i := 0; i < 500; i++ {
		e := Entry{Tag: uint64(i % 11), Target: uint64(i), PC: uint64(3 * i)}
		gv, gev := tbl.Insert(uint64(3*i), e)
		wv, wev := fresh.Insert(uint64(3*i), e)
		if gev != wev || gv.Tag != wv.Tag || gv.Target != wv.Target || gv.PC != wv.PC {
			t.Fatalf("insert %d: flushed table evicted (%+v, %v), new table (%+v, %v)", i, gv, gev, wv, wev)
		}
		if i < 16 && gev {
			t.Fatalf("insert %d evicted from a flushed table with stale ways free", i)
		}
	}
	var got, want []Entry
	tbl.ForEach(func(_, _ int, e Entry) { got = append(got, e) })
	fresh.ForEach(func(_, _ int, e Entry) { want = append(want, e) })
	if len(got) != len(want) {
		t.Fatalf("flushed table holds %d entries, new table %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Tag != want[i].Tag || got[i].Target != want[i].Target || got[i].PC != want[i].PC {
			t.Fatalf("entry %d: flushed table %+v, new table %+v", i, got[i], want[i])
		}
	}
}

// TestFlushGenerationWrap: when the generation counter wraps, Flush clears
// the entries, so an entry stamped with a generation from before the wrap
// cannot come back to life when that generation is reached again.
func TestFlushGenerationWrap(t *testing.T) {
	tbl := New(testConfig())
	tbl.Insert(1, Entry{Tag: 5, Target: 9}) // stamped with generation 1
	tbl.gen = math.MaxUint32                // the test hook: the last generation before the wrap
	tbl.Insert(2, Entry{Tag: 6, Target: 10})
	if tbl.ValidCount() != 1 {
		t.Fatalf("ValidCount = %d, want 1 (the entry of the current generation)", tbl.ValidCount())
	}
	tbl.Flush()
	if tbl.gen != 1 {
		t.Fatalf("generation after the wrap = %d, want 1", tbl.gen)
	}
	if _, ok := tbl.Lookup(1, 5); ok {
		t.Fatal("an entry stamped before the wrap is valid again")
	}
	if n := tbl.ValidCount(); n != 0 {
		t.Fatalf("ValidCount after the wrapping flush = %d", n)
	}
	if s := tbl.Stats(); s.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", s.Flushes)
	}
}

package tage

import (
	"testing"

	"hybp/internal/rng"
)

// benchStream generates a deterministic branch stream shaped like the
// simulator's: a working set of PCs with mixed biased/patterned outcomes.
// Pre-generated so the benchmark times the predictor, not the generator.
type benchPoint struct {
	pc    uint64
	taken bool
}

func makeStream(n int) []benchPoint {
	pts := make([]benchPoint, n)
	for i := range pts {
		pc := 0x4000_0000 + uint64(i%512)*64
		taken := (i>>(i%7))&1 == 0
		pts[i] = benchPoint{pc: pc, taken: taken}
	}
	return pts
}

// BenchmarkAccess times the full predict+update path on the paper's
// thirty-table geometry — the hottest function of the whole simulator.
func BenchmarkAccess(b *testing.B) {
	t := New(DefaultConfig(1))
	hs := t.NewHistory()
	stream := makeStream(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := stream[i&4095]
		t.Access(p.pc, p.taken, hs)
	}
}

// BenchmarkAccessKeyed times predict+update with HyBP-shaped keys set
// before every access: the index keys are a window of a doubled 1K-entry
// code book starting at the branch's entry, as HyBP reads them outside a
// refresh window, and the tag keys stay fixed within the epoch.
func BenchmarkAccessKeyed(b *testing.B) {
	t := New(DefaultConfig(1))
	hs := t.NewHistory()
	stream := makeStream(4096)
	n := t.NumTables()
	book, tag := make([]uint64, 2*1024), make([]uint64, n)
	hybpKeys(0, book[:1024], book[1024:])
	copy(book[1024:], book[:1024])
	hybpKeys(0, make([]uint64, n), tag)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := stream[i&4095]
		at := p.pc >> 1 & 1023
		t.SetKeys(book[at:at+uint64(n)], tag)
		t.Access(p.pc, p.taken, hs)
	}
}

// BenchmarkAccessRandomPC times predict+update on the attack PoCs' shape:
// thirty 64-entry tables (the 1/16 geometry they attack) and random PCs
// over 16K branches with random outcomes, so about half the accesses
// mispredict and allocate. BenchmarkAccess's 512-PC stream rarely does.
func BenchmarkAccessRandomPC(b *testing.B) {
	cfg := DefaultConfig(1)
	cfg.Tables = append([]TableSpec(nil), cfg.Tables...)
	for i := range cfg.Tables {
		cfg.Tables[i].Entries = 64
	}
	t := New(cfg)
	hs := t.NewHistory()
	r := rng.New(1)
	stream := make([]benchPoint, 4096)
	for i := range stream {
		stream[i] = benchPoint{pc: 0x4000_0000 + uint64(r.Intn(1<<14))*4, taken: r.Bool(0.5)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := stream[i&4095]
		t.Access(p.pc, p.taken, hs)
	}
}

// BenchmarkLookup isolates the tagged-table lookup on the paper's
// thirty-table geometry, over BenchmarkAccess's stream on trained tables:
// every table's index and tag hash, the tag probes and the provider and
// alternate choice, without the training or the history update.
func BenchmarkLookup(b *testing.B) {
	t := New(DefaultConfig(1))
	hs := t.NewHistory()
	stream := makeStream(4096)
	for _, p := range stream {
		t.Access(p.pc, p.taken, hs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lookupSink = t.lookup(stream[i&4095].pc, hs)
	}
}

var lookupSink lookupResult

// BenchmarkHistoryReset times the per-thread history reset every
// context switch of Flush, Partition, Replication and HyBP performs.
func BenchmarkHistoryReset(b *testing.B) {
	hs := New(DefaultConfig(1)).NewHistory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.Reset()
	}
}

// BenchmarkHistoryUpdate isolates the folded-history maintenance cost.
func BenchmarkHistoryUpdate(b *testing.B) {
	t := New(DefaultConfig(1))
	hs := t.NewHistory()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs.Update(uint64(i)*64, i&3 == 0)
	}
}

// TestAccessZeroAllocs pins the hot path allocation-free: one TAGE
// predict+update must not allocate, so future changes cannot silently
// reintroduce per-lookup garbage.
func TestAccessZeroAllocs(t *testing.T) {
	tg := New(DefaultConfig(1))
	hs := tg.NewHistory()
	stream := makeStream(4096)
	// Warm the tables so allocation-path (entry claiming) also runs.
	for i, p := range stream {
		_ = i
		tg.Access(p.pc, p.taken, hs)
	}
	i := 0
	avg := testing.AllocsPerRun(4096, func() {
		p := stream[i&4095]
		i++
		tg.Access(p.pc, p.taken, hs)
	})
	if avg != 0 {
		t.Fatalf("Tage.Access allocates %.2f objects/op, want 0", avg)
	}
}

// TestPredictZeroAllocs pins the side-effect-free probe path too.
func TestPredictZeroAllocs(t *testing.T) {
	tg := New(DefaultConfig(1))
	hs := tg.NewHistory()
	stream := makeStream(4096)
	for _, p := range stream {
		tg.Access(p.pc, p.taken, hs)
	}
	i := 0
	avg := testing.AllocsPerRun(4096, func() {
		p := stream[i&4095]
		i++
		tg.Predict(p.pc, hs)
	})
	if avg != 0 {
		t.Fatalf("Tage.Predict allocates %.2f objects/op, want 0", avg)
	}
}

package tage

import (
	"reflect"
	"testing"

	"hybp/internal/rng"
)

func TestHistoryBuffer(t *testing.T) {
	h := NewHistoryBuffer(8)
	h.Push(true)
	h.Push(false)
	h.Push(true) // newest
	if h.Bit(0) != 1 || h.Bit(1) != 0 || h.Bit(2) != 1 {
		t.Fatalf("bits = %d %d %d", h.Bit(0), h.Bit(1), h.Bit(2))
	}
	for i := 0; i < 20; i++ { // wrap around
		h.Push(i%2 == 0)
	}
	if h.Bit(0) != 0 { // i=19 odd -> false
		t.Fatal("wraparound broke ordering")
	}
	h.Reset()
	for i := 0; i < 8; i++ {
		if h.Bit(i) != 0 {
			t.Fatal("reset left bits set")
		}
	}
}

// foldedHistory is the reference fold: history of length origLen folded
// (by XOR) into compLen bits, one value per fold. History packs three of
// these into lanes of one word per table; the tests check it against this.
type foldedHistory struct {
	comp     uint32
	origLen  uint16
	compLen  uint8
	outPoint uint8
}

func newFolded(origLen, compLen int) foldedHistory {
	return foldedHistory{
		compLen:  uint8(compLen),
		origLen:  uint16(origLen),
		outPoint: uint8(origLen % compLen),
	}
}

// shift folds in the newest history bit and folds out oldBit, the bit that
// just fell off the end of this fold's original window.
func (f *foldedHistory) shift(newBit, oldBit uint32) {
	f.comp = (f.comp << 1) | newBit
	f.comp ^= oldBit << f.outPoint
	f.comp ^= f.comp >> f.compLen
	f.comp &= (1 << f.compLen) - 1
}

// historyBits is a global history read newest first: the package's
// HistoryBuffer, or the reference's modular ring (refRing).
type historyBits interface{ Bit(i int) byte }

// update shifts in the buffer's newest bit; call it after Push.
func (f *foldedHistory) update(h historyBits) {
	f.shift(uint32(h.Bit(0)), uint32(h.Bit(int(f.origLen))))
}

// reset recomputes the fold from scratch over the buffer.
func (f *foldedHistory) reset(h historyBits) {
	f.comp = 0
	for i := int(f.origLen) - 1; i >= 0; i-- {
		f.comp = (f.comp << 1) | uint32(h.Bit(i))
		f.comp = (f.comp ^ (f.comp >> f.compLen)) & (1<<f.compLen - 1)
	}
}

func TestFoldedHistoryMatchesRecompute(t *testing.T) {
	// Property: the incremental fold equals folding the history window
	// from scratch, for arbitrary outcome streams.
	const histLen, compLen = 23, 9
	h := NewHistoryBuffer(histLen + 8)
	f := newFolded(histLen, compLen)
	r := rng.New(3)
	recompute := func() uint32 {
		var c uint32
		for i := histLen - 1; i >= 0; i-- {
			c = (c << 1) | uint32(h.Bit(i))
			c = (c ^ (c >> compLen)) & (1<<compLen - 1)
		}
		return c
	}
	for step := 0; step < 500; step++ {
		h.Push(r.Bool(0.5))
		f.update(h)
		if f.comp != recompute() {
			t.Fatalf("step %d: incremental fold %#x != recomputed %#x", step, f.comp, recompute())
		}
	}
}

func TestFoldSetMatchesFoldedHistory(t *testing.T) {
	// Each table's lane-packed folds must evolve exactly like three
	// independent reference folds sharing its window, across arbitrary
	// outcome streams, the paper geometry's extreme widths (compLen
	// 7..11, index width 10, including the tag-1 lane), the 1/16 attack
	// geometry's 6-bit index and the widest fold New accepts (a 15-bit
	// index, 15-bit tags). The geometries are the tables of one predictor,
	// so History.Update folds them side by side: all eight (two full
	// kernel groups) and the first seven (a group with a padding lane),
	// on the portable loop and, where the CPU has it, the fold kernel.
	geoms := []struct{ histLen, idxBits, tagBits int }{
		{23, 9, 8},
		{640, 10, 11},
		{5, 10, 8},
		{130, 10, 11},
		{4, 6, 8},
		{640, 6, 11},
		{97, 6, 11},
		{1000, 15, 15},
	}
	forEachPath(t, func(t *testing.T) {
		for _, n := range []int{len(geoms), len(geoms) - 1} {
			cfg := SmallConfig(1)
			cfg.Tables = nil
			for _, g := range geoms[:n] {
				cfg.Tables = append(cfg.Tables, TableSpec{Entries: 1 << g.idxBits, TagBits: g.tagBits, UBits: 1, HistLen: g.histLen})
			}
			hs := New(cfg).NewHistory()
			refs := make([][3]foldedHistory, n)
			for i, g := range geoms[:n] {
				refs[i] = [3]foldedHistory{
					newFolded(g.histLen, g.idxBits),
					newFolded(g.histLen, g.tagBits),
					newFolded(g.histLen, g.tagBits-1),
				}
			}
			r := rng.New(uint64(n))
			for step := 0; step < 3000; step++ {
				hs.Update(r.Uint64(), r.Bool(0.5))
				for i, g := range geoms[:n] {
					newBit, oldBit := uint32(hs.ghr.Bit(0)), uint32(hs.ghr.Bit(g.histLen))
					for l := range refs[i] {
						refs[i][l].shift(newBit, oldBit)
					}
					p := hs.fold[i]
					idx, tag0, tag1 := p&foldLaneMask, p>>foldLaneBits&foldLaneMask, p>>(2*foldLaneBits)
					if idx != uint64(refs[i][0].comp) || tag0 != uint64(refs[i][1].comp) || tag1 != uint64(refs[i][2].comp) {
						t.Fatalf("geom %+v step %d: fold lanes (%#x,%#x,%#x) != refs (%#x,%#x,%#x)",
							g, step, idx, tag0, tag1, refs[i][0].comp, refs[i][1].comp, refs[i][2].comp)
					}
				}
			}
		}
	})
}

// TestHistoryResetMatchesFresh pins the O(1) reset: after arbitrary
// updates, Reset leaves a History field-for-field equal to a fresh one, and
// the reference fold recomputed over the cleared buffer reads 0 in every
// lane, which is what Reset stores without recomputing.
func TestHistoryResetMatchesFresh(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(1), SmallConfig(1)} {
		p := New(cfg)
		hs := p.NewHistory()
		r := rng.New(17)
		for i := 0; i < 5000; i++ {
			hs.Update(r.Uint64(), r.Bool(0.5))
		}
		hs.Reset()
		if fresh := p.NewHistory(); !reflect.DeepEqual(hs, fresh) {
			t.Fatalf("%d tables: reset history differs from a fresh one", len(cfg.Tables))
		}
		for i, spec := range cfg.Tables {
			for lane, compLen := range [3]int{bitsFor(spec.Entries), spec.TagBits, spec.TagBits - 1} {
				ref := newFolded(spec.HistLen, compLen)
				ref.reset(hs.ghr)
				got := hs.fold[i] >> (foldLaneBits * uint(lane)) & foldLaneMask
				if ref.comp != 0 || got != 0 {
					t.Fatalf("table %d lane %d: fold %#x, recomputed over the cleared buffer %#x, want 0",
						i, lane, got, ref.comp)
				}
			}
		}
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(1024)
	pc := uint64(0x400)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("bimodal did not learn a taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("bimodal did not relearn a not-taken bias")
	}
}

func TestBimodalStorage(t *testing.T) {
	b := NewBimodal(8192)
	if got := b.StorageBits(); got != 8192+4096 {
		t.Fatalf("storage = %d, want 12288 (8Kbit pred + 4Kbit hyst)", got)
	}
}

func TestBimodalValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBimodal(100) did not panic")
		}
	}()
	NewBimodal(100)
}

// TestBimodalMatchesSharedCounters checks the inverted hysteresis storage
// against the plain model: a 2-bit counter per entry whose low bit is
// shared by each pair of entries, starting weakly not-taken (0b01).
func TestBimodalMatchesSharedCounters(t *testing.T) {
	b := NewBimodal(256)
	pred, hyst := make([]byte, 256), make([]byte, 128)
	for i := range hyst {
		hyst[i] = 1
	}
	r := rng.New(5)
	for step := 0; step < 20000; step++ {
		pc := r.Uint64()
		i := pc >> 1 & 255
		if b.Predict(pc) != (pred[i] == 1) {
			t.Fatalf("step %d: Predict(%#x) = %v, counter model %d", step, pc, b.Predict(pc), pred[i])
		}
		taken := r.Bool(0.6)
		state := pred[i]<<1 | hyst[i/2]
		if taken && state < 3 {
			state++
		} else if !taken && state > 0 {
			state--
		}
		pred[i], hyst[i/2] = state>>1, state&1
		b.Update(pc, taken)
	}
}

// TestBimodalFlushMatchesNew: after Flush a trained Bimodal is a new one,
// field for field and prediction for prediction.
func TestBimodalFlushMatchesNew(t *testing.T) {
	b := NewBimodal(1024)
	r := rng.New(8)
	for i := 0; i < 5000; i++ {
		b.Update(r.Uint64(), r.Bool(0.7))
	}
	b.Flush()
	fresh := NewBimodal(1024)
	if !reflect.DeepEqual(b, fresh) {
		t.Fatal("flushed bimodal differs from a new one")
	}
	for i := 0; i < 5000; i++ {
		pc, taken := r.Uint64(), r.Bool(0.5)
		if b.Predict(pc) != fresh.Predict(pc) {
			t.Fatalf("step %d: flushed and new bimodal predict differently", i)
		}
		b.Update(pc, taken)
		fresh.Update(pc, taken)
	}
}

// runPattern feeds branches to a predictor and returns its accuracy over
// the final measurement window.
func runPattern(t *Tage, hs *History, gen func(i int) (pc uint64, taken bool), warm, measure int) float64 {
	for i := 0; i < warm; i++ {
		pc, taken := gen(i)
		t.Access(pc, taken, hs)
	}
	correct := 0
	for i := 0; i < measure; i++ {
		pc, taken := gen(warm + i)
		if t.Access(pc, taken, hs) == taken {
			correct++
		}
	}
	return float64(correct) / float64(measure)
}

func TestTageLearnsBiasedBranch(t *testing.T) {
	p := New(SmallConfig(1))
	hs := p.NewHistory()
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0x1000, true }, 200, 1000)
	if acc < 0.999 {
		t.Fatalf("accuracy on always-taken = %v", acc)
	}
}

func TestTageLearnsAlternatingPattern(t *testing.T) {
	p := New(SmallConfig(2))
	hs := p.NewHistory()
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0x2000, i%2 == 0 }, 500, 2000)
	if acc < 0.98 {
		t.Fatalf("accuracy on alternating pattern = %v, want ≈1 (history predictable)", acc)
	}
}

func TestTageLearnsPeriodicPattern(t *testing.T) {
	// Period-7 pattern: requires ≥7 bits of history, beyond bimodal.
	p := New(SmallConfig(3))
	hs := p.NewHistory()
	pattern := []bool{true, true, false, true, false, false, true}
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0x3000, pattern[i%len(pattern)] }, 3000, 4000)
	if acc < 0.95 {
		t.Fatalf("accuracy on period-7 pattern = %v", acc)
	}
}

func TestTageBeatsBimodalOnCorrelatedBranches(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: pure
	// history correlation that a bimodal cannot capture.
	gen := func(r *rng.Rand) func(i int) (uint64, bool) {
		var lastA bool
		return func(i int) (uint64, bool) {
			if i%2 == 0 {
				lastA = r.Bool(0.5)
				return 0xA000, lastA
			}
			return 0xB000, lastA
		}
	}
	p := New(SmallConfig(4))
	hs := p.NewHistory()
	tageAcc := runPattern(p, hs, gen(rng.New(9)), 4000, 8000)

	b := NewBimodal(1024)
	g := gen(rng.New(9))
	for i := 0; i < 4000; i++ {
		pc, taken := g(i)
		b.Update(pc, taken)
	}
	correct := 0
	for i := 0; i < 8000; i++ {
		pc, taken := g(4000 + i)
		if b.Predict(pc) == taken {
			correct++
		}
		b.Update(pc, taken)
	}
	bimodalAcc := float64(correct) / 8000

	// Overall accuracy: branch A is unpredictable (50%), branch B fully
	// correlated. TAGE ≈ 75%, bimodal ≈ 50–62%.
	if tageAcc < bimodalAcc+0.08 {
		t.Fatalf("tage %.3f vs bimodal %.3f: no correlation advantage", tageAcc, bimodalAcc)
	}
}

func TestLoopPredictorLearnsTripCount(t *testing.T) {
	p := New(SmallConfig(5))
	hs := p.NewHistory()
	// Loop with 37 iterations then exit; trip count beyond the tagged
	// tables' reliable reach for a single noisy context but exactly what
	// the loop predictor captures.
	gen := func(i int) (uint64, bool) {
		return 0x5000, i%37 != 36
	}
	acc := runPattern(p, hs, gen, 37*60, 37*40)
	if acc < 0.99 {
		t.Fatalf("accuracy on 37-trip loop = %v", acc)
	}
	if p.Stats().LoopHits == 0 {
		t.Fatal("loop predictor never provided a prediction")
	}
}

func TestTageRandomIsNearChance(t *testing.T) {
	p := New(SmallConfig(6))
	hs := p.NewHistory()
	r := rng.New(33)
	acc := runPattern(p, hs, func(i int) (uint64, bool) {
		return uint64(0x7000 + (i%16)*64), r.Bool(0.5)
	}, 2000, 6000)
	if acc < 0.4 || acc > 0.6 {
		t.Fatalf("accuracy on random outcomes = %v, want ≈0.5", acc)
	}
}

func TestTageAllocationsHappen(t *testing.T) {
	p := New(SmallConfig(7))
	hs := p.NewHistory()
	r := rng.New(5)
	for i := 0; i < 5000; i++ {
		p.Access(uint64(0x100+(i%64)*2), r.Bool(0.5), hs)
	}
	if p.Stats().Allocations == 0 {
		t.Fatal("no tagged-table allocations on unpredictable workload")
	}
}

func TestFlushTaggedPreservesBase(t *testing.T) {
	p := New(SmallConfig(8))
	hs := p.NewHistory()
	for i := 0; i < 100; i++ {
		p.Access(0x9000, true, hs)
	}
	if !p.Base().Predict(0x9000) {
		t.Skip("base not trained; provider absorbed all updates")
	}
	p.FlushTagged()
	if !p.Base().Predict(0x9000) {
		t.Fatal("FlushTagged cleared the base predictor")
	}
}

func TestSetBaseSwap(t *testing.T) {
	p := New(SmallConfig(9))
	a := p.Base()
	b := NewBimodal(1024)
	if old := p.SetBase(b); old != a {
		t.Fatal("SetBase did not return previous base")
	}
	if p.Base() != b {
		t.Fatal("SetBase did not install new base")
	}
}

func TestSetKeysChangesMapping(t *testing.T) {
	// With new keys installed, a trained branch's tagged entries become
	// unreachable — the randomization property HyBP uses on the PHT.
	p := New(SmallConfig(10))
	hs := p.NewHistory()
	pattern := []bool{true, true, false, true, false, false, true}
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0xC000, pattern[i%len(pattern)] }, 3000, 2000)
	if acc < 0.9 {
		t.Skipf("pattern not learned (acc=%v); cannot test keys", acc)
	}
	// At steady state, tagged providers serve the history-dependent
	// contexts of the pattern.
	p.ResetStats()
	for i := 0; i < 14; i++ {
		p.Access(0xC000, pattern[i%len(pattern)], hs)
	}
	if p.Stats().ProviderHits == 0 {
		t.Fatal("no provider hits at steady state; pattern absorbed by base")
	}
	// Immediately after a key change, every previously trained tagged
	// entry must be unreachable: the first pass over the pattern's
	// contexts sees zero provider hits (the logical-isolation property).
	idx, tag := make([]uint64, p.NumTables()), make([]uint64, p.NumTables())
	for ti := range idx {
		idx[ti], tag[ti] = 0x55, 0x2AA
	}
	p.SetKeys(idx, tag)
	p.ResetStats()
	for i := 0; i < len(pattern); i++ {
		p.Access(0xC000, pattern[i%len(pattern)], hs)
	}
	if got := p.Stats().ProviderHits; got != 0 {
		t.Fatalf("provider hits right after key change = %d, want 0", got)
	}
	if p.Stats().Allocations == 0 {
		t.Fatal("no reallocation after key change; predictor not relearning")
	}
}

// TestSetKeysValidation: nil keys restore the plain mapping, and keys of
// the wrong length are refused rather than read out of range.
func TestSetKeysValidation(t *testing.T) {
	p := New(SmallConfig(1))
	p.SetKeys(nil, nil)
	if len(p.idxKeys) != p.NumTables() || len(p.tagKeys) != p.NumTables() {
		t.Fatalf("nil keys give %d/%d keys, want %d", len(p.idxKeys), len(p.tagKeys), p.NumTables())
	}
	for _, k := range append(p.idxKeys, p.tagKeys...) {
		if k != 0 {
			t.Fatal("nil keys are not the zero keys")
		}
	}
	for _, keys := range [][2][]uint64{
		{make([]uint64, p.NumTables()-1), make([]uint64, p.NumTables())},
		{make([]uint64, p.NumTables()), nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetKeys accepted %d index and %d tag keys for %d tables",
						len(keys[0]), len(keys[1]), p.NumTables())
				}
			}()
			p.SetKeys(keys[0], keys[1])
		}()
	}
}

// TestNewRejectsTooManyTables: lookup masks the PC shift count of table
// ti, 1+ti, with 63, which is exact only up to 63 tables, so New refuses
// more instead of hashing differently.
func TestNewRejectsTooManyTables(t *testing.T) {
	cfg := SmallConfig(1)
	cfg.Tables = make([]TableSpec, 63)
	for i := range cfg.Tables {
		cfg.Tables[i] = TableSpec{Entries: 16, TagBits: 8, UBits: 1, HistLen: i + 1}
	}
	New(cfg)
	cfg.Tables = append(cfg.Tables, TableSpec{Entries: 16, TagBits: 8, UBits: 1, HistLen: 64})
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted 64 tagged tables")
		}
	}()
	New(cfg)
}

// TestNewRejectsTooLargeTables: foldShift's carry folds an index of at
// most 15 bits, so New refuses a table above 32768 entries instead of
// folding its history wrongly.
func TestNewRejectsTooLargeTables(t *testing.T) {
	cfg := SmallConfig(1)
	cfg.Tables = []TableSpec{{Entries: 1 << 15, TagBits: 15, UBits: 1, HistLen: 640}}
	New(cfg)
	cfg.Tables[0].Entries = 1 << 16
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a 65536-entry tagged table")
		}
	}()
	New(cfg)
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig(0)
	if len(cfg.Tables) != 30 {
		t.Fatalf("tables = %d, want 30", len(cfg.Tables))
	}
	for i, s := range cfg.Tables {
		if s.Entries != 1024 {
			t.Errorf("table %d entries = %d", i, s.Entries)
		}
		want12 := i < 10
		if want12 && s.entryBits() != 12 {
			t.Errorf("table %d entry bits = %d, want 12", i, s.entryBits())
		}
		if !want12 && s.entryBits() != 16 {
			t.Errorf("table %d entry bits = %d, want 16", i, s.entryBits())
		}
		if i > 0 && s.HistLen <= cfg.Tables[i-1].HistLen {
			t.Errorf("history lengths not strictly increasing at %d", i)
		}
	}
	// Storage: 10×1K×12 + 20×1K×16 = 440 Kbit = 55 KB for tagged tables.
	p := New(cfg)
	taggedBits := 10*1024*12 + 20*1024*16
	if got := p.StorageBits(); got < taggedBits || got > taggedBits+100*1024 {
		t.Errorf("storage bits = %d, want ≥ %d (tagged) with modest SC/loop extra", got, taggedBits)
	}
	// Total with base ≈ 66.6 KB per the paper's Table IV.
	totalKB := float64(p.StorageBits()+NewBimodal(cfg.BimodalEntries).StorageBits()) / 8 / 1024
	if totalKB < 55 || totalKB > 75 {
		t.Errorf("TAGE-SC-L total = %.1f KB, want ≈66.6 KB", totalKB)
	}
}

func TestTournamentLearns(t *testing.T) {
	tp := NewTournament(DefaultTournamentConfig())
	h := tp.NewHistory()
	// Biased branch.
	for i := 0; i < 100; i++ {
		tp.Access(0x100, true, h)
	}
	if !tp.Predict(0x100, h) {
		t.Fatal("tournament did not learn bias")
	}
	// Alternating local pattern.
	correct := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if tp.Access(0x200, taken, h) == taken && i > 200 {
			correct++
		}
	}
	if correct < 1600 {
		t.Fatalf("tournament alternating accuracy too low: %d/1800", correct)
	}
}

func TestTageMoreAccurateThanTournament(t *testing.T) {
	// The Section VII-F premise: TAGE-SC-L buys meaningful accuracy over a
	// tournament predictor. The workload stresses the tournament's shared,
	// untagged local-counter array: hundreds of branches with distinct
	// period-8 patterns alias in its 2K localPred counters, while TAGE's
	// tagged tables disambiguate by PC.
	patterns := make([][8]bool, 384)
	r := rng.New(77)
	for i := range patterns {
		for j := range patterns[i] {
			patterns[i][j] = r.Bool(0.5)
		}
	}
	gen := func(i int) (uint64, bool) {
		br := i % len(patterns)
		phase := (i / len(patterns)) % 8
		return uint64(0x1000 + br*64), patterns[br][phase]
	}
	warm, measure := 40000, 40000

	p := New(DefaultConfig(11))
	hs := p.NewHistory()
	tageAcc := runPattern(p, hs, gen, warm, measure)

	tp := NewTournament(DefaultTournamentConfig())
	th := tp.NewHistory()
	for i := 0; i < warm; i++ {
		pc, taken := gen(i)
		tp.Access(pc, taken, th)
	}
	correct := 0
	for i := 0; i < measure; i++ {
		pc, taken := gen(warm + i)
		if tp.Access(pc, taken, th) == taken {
			correct++
		}
	}
	tournAcc := float64(correct) / float64(measure)
	if tageAcc < tournAcc+0.01 {
		t.Fatalf("tage %.4f vs tournament %.4f: no meaningful advantage", tageAcc, tournAcc)
	}
}

func TestStatsAccounting(t *testing.T) {
	p := New(SmallConfig(12))
	hs := p.NewHistory()
	for i := 0; i < 100; i++ {
		p.Access(0x10, true, hs)
	}
	s := p.Stats()
	if s.Predictions != 100 {
		t.Fatalf("predictions = %d", s.Predictions)
	}
	if s.Mispredictions > 10 {
		t.Fatalf("mispredictions = %d on trivial branch", s.Mispredictions)
	}
	p.ResetStats()
	if p.Stats().Predictions != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestPredictHasNoTrainingEffect(t *testing.T) {
	p := New(SmallConfig(13))
	hs := p.NewHistory()
	for i := 0; i < 50; i++ {
		p.Access(0x42, true, hs)
	}
	before := p.Stats()
	for i := 0; i < 100; i++ {
		p.Predict(0x42, hs)
	}
	after := p.Stats()
	if before.Predictions != after.Predictions {
		t.Fatal("Predict changed statistics")
	}
	if !p.Predict(0x42, hs) {
		t.Fatal("trained prediction lost")
	}
}

func TestHistoryResetClearsPrediction(t *testing.T) {
	p := New(SmallConfig(14))
	hs := p.NewHistory()
	pattern := []bool{true, false, false}
	runPattern(p, hs, func(i int) (uint64, bool) { return 0x77, pattern[i%3] }, 1000, 10)
	hs.Reset()
	// After a history reset the folded images must be consistent: feeding
	// more branches must not panic and accuracy must recover.
	acc := runPattern(p, hs, func(i int) (uint64, bool) { return 0x77, pattern[i%3] }, 1000, 1000)
	if acc < 0.9 {
		t.Fatalf("accuracy after history reset = %v", acc)
	}
}

func BenchmarkTageAccess(b *testing.B) {
	p := New(DefaultConfig(1))
	hs := p.NewHistory()
	r := rng.New(1)
	pcs := make([]uint64, 256)
	outcomes := make([]bool, 256)
	for i := range pcs {
		pcs[i] = uint64(0x1000 + i*2)
		outcomes[i] = r.Bool(0.7)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(pcs[i&255], outcomes[i&255], hs)
	}
}

func BenchmarkTournamentAccess(b *testing.B) {
	tp := NewTournament(DefaultTournamentConfig())
	h := tp.NewHistory()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.Access(uint64(0x1000+(i&255)*2), i&3 != 0, h)
	}
}

package tage

import (
	"math/bits"
	"testing"

	"hybp/internal/rng"
)

// refTage is the array-of-structs tagged-table predictor the flat banks
// replaced, kept as a differential reference: one slice of 6-byte entries
// per table, a per-table index function, and an allocation that
// recomputes every table's index. It keeps its own history (refHistory),
// so the history buffer and the packed folds are checked too. Its
// statistical corrector, loop predictor and bimodal base are the package's
// own, so a divergence from Tage can only come from the tagged tables or
// the history that indexes them.
type refTage struct {
	cfg      Config
	tables   [][]refEntry
	masks    []uint64
	tagMasks []uint64
	base     *Bimodal
	// idxKeys and tagKeys, when set, are XORed into table ti's index and
	// tag before masking, as Tage.SetKeys specifies.
	idxKeys, tagKeys []uint64

	useAltOnNA int8
	tick       uint64

	sc   *statCorrector
	loop *loopPredictor
	rand *rng.Rand

	stats Stats
}

type refEntry struct {
	tag   uint16
	ctr   int8
	u     uint8
	valid bool
}

type refLookup struct {
	provider    int
	providerIdx uint64
	altPred     bool
	altFromBase bool
	providerNew bool
	tagePred    bool
}

func newRef(cfg Config) *refTage {
	cfg = cfg.withDefaults()
	t := &refTage{
		cfg:      cfg,
		tables:   make([][]refEntry, len(cfg.Tables)),
		masks:    make([]uint64, len(cfg.Tables)),
		tagMasks: make([]uint64, len(cfg.Tables)),
		base:     NewBimodal(cfg.BimodalEntries),
		rand:     rng.New(cfg.Seed ^ 0x7a6e),
	}
	for i, spec := range cfg.Tables {
		t.tables[i] = make([]refEntry, spec.Entries)
		t.masks[i] = uint64(spec.Entries - 1)
		t.tagMasks[i] = 1<<uint(spec.TagBits) - 1
	}
	t.sc = newStatCorrector(cfg.SCBiasEntries, cfg.SCGEntries)
	t.loop = newLoopPredictor(cfg.Seed^0x100b, cfg.LoopSets)
	return t
}

func (t *refTage) index(ti int, pc uint64, hs *refHistory) (uint64, uint64) {
	f := &hs.folds[ti]
	idx := (pc >> 1) ^ (pc >> uint(1+ti)) ^ uint64(f[0].comp) ^ (hs.path & 0x3F)
	tag := (pc >> 1) ^ uint64(f[1].comp) ^ (uint64(f[2].comp) << 1)
	if t.idxKeys != nil {
		idx ^= t.idxKeys[ti]
		tag ^= t.tagKeys[ti]
	}
	return idx & t.masks[ti], tag & t.tagMasks[ti]
}

func (t *refTage) lookup(pc uint64, hs *refHistory) refLookup {
	res := refLookup{provider: -1}
	altSet := false
	for ti := len(t.tables) - 1; ti >= 0; ti-- {
		idx, tag := t.index(ti, pc, hs)
		e := &t.tables[ti][idx]
		if e.valid && e.tag == uint16(tag) {
			if res.provider == -1 {
				res.provider = ti
				res.providerIdx = idx
				res.providerNew = e.u == 0 && (e.ctr == 0 || e.ctr == -1)
			} else if !altSet {
				res.altPred = e.ctr >= 0
				altSet = true
			}
		}
		if res.provider != -1 && altSet {
			break
		}
	}
	if !altSet {
		res.altPred = t.base.Predict(pc)
		res.altFromBase = true
	}
	if res.provider >= 0 {
		e := &t.tables[res.provider][res.providerIdx]
		pred := e.ctr >= 0
		if res.providerNew && t.useAltOnNA >= 0 {
			pred = res.altPred
		}
		res.tagePred = pred
	} else {
		res.tagePred = res.altPred
	}
	return res
}

func (t *refTage) Predict(pc uint64, hs *refHistory) bool {
	res := t.lookup(pc, hs)
	pred := res.tagePred
	if lp, ok, conf := t.loop.predict(pc); ok && conf {
		pred = lp
	}
	if res.provider >= 0 {
		e := &t.tables[res.provider][res.providerIdx]
		if weakCtr(e.ctr) {
			if scPred, use := t.sc.predict(pc, hs.sc, pred); use {
				pred = scPred
			}
		}
	}
	return pred
}

func (t *refTage) Access(pc uint64, taken bool, hs *refHistory) bool {
	t.stats.Predictions++
	res := t.lookup(pc, hs)
	pred := res.tagePred
	finalIsLoop := false
	if lp, ok, conf := t.loop.predict(pc); ok && conf {
		pred = lp
		finalIsLoop = true
		t.stats.LoopHits++
	}
	scUsed := false
	scPred := pred
	if res.provider >= 0 && !finalIsLoop {
		e := &t.tables[res.provider][res.providerIdx]
		if weakCtr(e.ctr) {
			if sp, use := t.sc.predict(pc, hs.sc, res.tagePred); use {
				scPred = sp
				scUsed = true
				if sp != pred {
					t.stats.SCFlips++
					pred = sp
				}
			}
		}
	}
	if res.provider >= 0 {
		t.stats.ProviderHits++
	} else {
		t.stats.BaseHits++
	}
	if pred != taken {
		t.stats.Mispredictions++
	}
	t.train(pc, taken, hs, res, scUsed, scPred)
	hs.update(pc, taken)
	return pred
}

func (t *refTage) train(pc uint64, taken bool, hs *refHistory, res refLookup, scUsed bool, scPred bool) {
	t.loop.update(pc, taken, res.tagePred)
	if scUsed {
		t.sc.update(pc, hs.sc, taken, scPred)
	}
	if res.provider >= 0 {
		e := &t.tables[res.provider][res.providerIdx]
		provPred := e.ctr >= 0
		if res.providerNew && provPred != res.altPred {
			if provPred == taken {
				if t.useAltOnNA > -8 {
					t.useAltOnNA--
				}
			} else if t.useAltOnNA < 7 {
				t.useAltOnNA++
			}
		}
		if provPred != res.altPred {
			maxU := uint8(1)<<uint(t.cfg.Tables[res.provider].UBits) - 1
			if provPred == taken {
				if e.u < maxU {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		e.ctr = satUpdate(e.ctr, taken)
		if res.altFromBase && res.providerNew {
			t.base.Update(pc, taken)
		}
		if res.tagePred != taken {
			t.allocate(pc, taken, hs, res.provider)
		}
	} else {
		t.base.Update(pc, taken)
		if res.tagePred != taken {
			t.allocate(pc, taken, hs, -1)
		}
	}
	t.tick++
	if t.tick&(1<<18-1) == 0 {
		t.ageUseful()
	}
}

func (t *refTage) allocate(pc uint64, taken bool, hs *refHistory, provider int) {
	start := provider + 1
	if start >= len(t.tables) {
		return
	}
	start += t.rand.Intn(3)
	if start >= len(t.tables) {
		start = len(t.tables) - 1
	}
	for ti := start; ti < len(t.tables); ti++ {
		idx, tag := t.index(ti, pc, hs)
		e := &t.tables[ti][idx]
		if e.u == 0 {
			e.tag = uint16(tag)
			e.valid = true
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			t.stats.Allocations++
			return
		}
	}
	for ti := provider + 1; ti < len(t.tables); ti++ {
		idx, _ := t.index(ti, pc, hs)
		e := &t.tables[ti][idx]
		if e.u > 0 {
			e.u--
		}
	}
	t.stats.AllocFailures++
}

func (t *refTage) ageUseful() {
	for ti := range t.tables {
		for i := range t.tables[ti] {
			t.tables[ti][i].u >>= 1
		}
	}
}

func (t *refTage) FlushTagged() {
	for ti := range t.tables {
		for i := range t.tables[ti] {
			t.tables[ti][i] = refEntry{}
		}
	}
	t.sc.flush()
	t.loop.flush()
}

func (t *refTage) Flush() {
	t.FlushTagged()
	t.base.Flush()
	t.useAltOnNA = 0
}

// refRing is the modular ring buffer the doubled HistoryBuffer replaced:
// one copy of each bit, and a read that wraps.
type refRing struct {
	bits []byte
	pos  int
	size int
}

func newRefRing(size int) *refRing { return &refRing{bits: make([]byte, size), size: size} }

func (h *refRing) push(taken bool) {
	h.pos--
	if h.pos < 0 {
		h.pos = h.size - 1
	}
	h.bits[h.pos] = 0
	if taken {
		h.bits[h.pos] = 1
	}
}

func (h *refRing) Bit(i int) byte { return h.bits[(h.pos+i)%h.size] }

func (h *refRing) reset() {
	clear(h.bits)
	h.pos = 0
}

// refHistory is the reference side's own per-thread history: a modular
// ring, the path register and, per table, the three folds unpacked as
// separate foldedHistory values. Its reset recomputes every fold bit by
// bit from the cleared ring, as the reset before the O(1) one did. sc is
// the same history packed into a History for the package's statistical
// corrector, rebuilt from the reference folds after every change.
type refHistory struct {
	ghr   *refRing
	path  uint64
	folds [][3]foldedHistory
	sc    *History
}

func newRefHistory(cfg Config) *refHistory {
	maxLen := 0
	hs := &refHistory{folds: make([][3]foldedHistory, len(cfg.Tables))}
	hs.sc = &History{fold: make([]uint64, len(cfg.Tables))}
	for i, s := range cfg.Tables {
		maxLen = max(maxLen, s.HistLen)
		idxBits := bits.Len(uint(s.Entries)) - 1
		hs.folds[i] = [3]foldedHistory{
			newFolded(s.HistLen, idxBits),
			newFolded(s.HistLen, s.TagBits),
			newFolded(s.HistLen, s.TagBits-1),
		}
	}
	hs.ghr = newRefRing(maxLen + 64)
	return hs
}

func (hs *refHistory) update(pc uint64, taken bool) {
	hs.ghr.push(taken)
	hs.path = (hs.path << 1) | ((pc >> 2) & 1)
	for i := range hs.folds {
		for l := range hs.folds[i] {
			hs.folds[i][l].update(hs.ghr)
		}
	}
	hs.pack()
}

func (hs *refHistory) reset() {
	hs.ghr.reset()
	hs.path = 0
	for i := range hs.folds {
		for l := range hs.folds[i] {
			hs.folds[i][l].reset(hs.ghr)
		}
	}
	hs.pack()
}

func (hs *refHistory) pack() {
	hs.sc.path = hs.path
	for i, f := range hs.folds {
		hs.sc.fold[i] = uint64(f[0].comp) | uint64(f[1].comp)<<foldLaneBits | uint64(f[2].comp)<<(2*foldLaneBits)
	}
}

// TestHistoryBufferMatchesModularRing pins the doubled buffer's
// wrap-free read against the modular ring it replaced: after every push
// across more than two full wraps, and after a reset mid-stream, every
// Bit(i) and the window push returns agree with the ring.
func TestHistoryBufferMatchesModularRing(t *testing.T) {
	for _, size := range []int{1, 7, 64, 704} {
		h, ref := NewHistoryBuffer(size), newRefRing(size)
		r := rng.New(uint64(size))
		for step := 0; step < 5*size/2+3; step++ {
			if step == 2*size+1 {
				h.Reset()
				ref.reset()
			}
			taken := r.Bool(0.5)
			var b byte
			if taken {
				b = 1
			}
			ref.push(taken)
			var win []byte
			if step%2 == 0 {
				win = h.push(b)
			} else {
				h.Push(taken)
				win = h.bits[h.pos : h.pos+size]
			}
			if len(win) != size {
				t.Fatalf("size %d step %d: window holds %d bits", size, step, len(win))
			}
			for i := 0; i < size; i++ {
				if got, want := h.Bit(i), ref.Bit(i); got != want || win[i] != want {
					t.Fatalf("size %d step %d: bit %d = %d (window %d), modular ring %d",
						size, step, i, got, win[i], want)
				}
			}
		}
	}
}

// hybpKeys fills HyBP-shaped keys for the branch at pc: a per-(pc, table)
// index key as wide as a hash gives (the mask must cut it) and a per-table
// slice of a content key for the tag, as internal/secure derives them.
func hybpKeys(pc uint64, idx, tag []uint64) {
	for ti := range idx {
		idx[ti] = (pc + uint64(ti)<<1) * 0x9E3779B97F4A7C15 >> 17
		tag[ti] = uint64(0xC3A5C85C97CB3127) >> (uint(ti) % 32) & 0x7FF
	}
}

// TestTageMatchesReference drives the flat-bank Tage and the
// array-of-structs reference, each with its own history, with identical
// streams and asserts every prediction and the final statistics agree.
// Half the accesses are random PCs over 16K branches with random
// outcomes, which keep allocation frequent and vary the path history; the
// other half go to 32 hot branches whose outcome follows the thread's last
// two outcomes, which tagged entries learn and so mark useful. On the
// three-table 16-entry geometry those useful entries make allocation fail
// and the useful-counter decay run. Flushes and history resets land
// mid-stream, and the run is long enough for ageUseful to fire. The smt
// variants interleave two threads' histories on the one predictor at
// random, resetting only one of them at the first reset.
func TestTageMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential run")
	}
	small := DefaultConfig(3)
	small.Tables = append([]TableSpec(nil), small.Tables...)
	for i := range small.Tables {
		small.Tables[i].Entries = 64
	}
	tiny := SmallConfig(4)
	tiny.Tables = []TableSpec{
		{Entries: 16, TagBits: 8, UBits: 1, HistLen: 3},
		{Entries: 16, TagBits: 8, UBits: 2, HistLen: 7},
		{Entries: 16, TagBits: 11, UBits: 2, HistLen: 15},
	}
	const n = 1<<18 + 40_000
	for _, g := range []struct {
		name  string
		cfg   Config
		fails bool // the stream must make allocation fail
	}{{"default", DefaultConfig(2), false}, {"30x64", small, false}, {"3x16", tiny, true}} {
		for _, keyed := range []bool{false, true} {
			for _, threads := range []int{1, 2} {
				name := g.name + "/identity"
				if keyed {
					name = g.name + "/keyed"
				}
				if threads == 2 {
					name += "/smt"
				}
				t.Run(name, func(t *testing.T) {
					got, want := New(g.cfg), newRef(g.cfg)
					idxKeys := make([]uint64, len(g.cfg.Tables))
					tagKeys := make([]uint64, len(g.cfg.Tables))
					var ghs []*History
					var whs []*refHistory
					for range threads {
						ghs = append(ghs, got.NewHistory())
						whs = append(whs, newRefHistory(g.cfg))
					}
					last := make([]uint64, threads)
					r := rng.New(99)
					for i := 0; i < n; i++ {
						switch i {
						case 50_000:
							got.FlushTagged()
							want.FlushTagged()
						case 100_000:
							ghs[0].Reset()
							whs[0].reset()
						case 150_000:
							got.Flush()
							want.Flush()
							for th := range ghs {
								ghs[th].Reset()
								whs[th].reset()
							}
						}
						th := r.Intn(threads)
						b := uint64(r.Intn(1 << 14))
						taken := r.Bool(0.6)
						// Random PCs are multiples of 4, so their path bit
						// varies; hot PCs are multiples of 8, so theirs is 0.
						pc := 0x4000_0000 + b*4
						if r.Bool(0.5) {
							b &= 31
							taken = bits.OnesCount64((last[th]^b)&3)&1 == 0
							pc = 0x4000_0000 + b*8
						}
						last[th] <<= 1
						if taken {
							last[th] |= 1
						}
						if keyed {
							// Keys change with every branch, as HyBP's
							// code-book window does.
							hybpKeys(pc, idxKeys, tagKeys)
							got.SetKeys(idxKeys, tagKeys)
							want.idxKeys, want.tagKeys = idxKeys, tagKeys
						}
						if i%7 == 0 {
							if gp, wp := got.Predict(pc, ghs[th]), want.Predict(pc, whs[th]); gp != wp {
								t.Fatalf("access %d: Predict = %v, reference %v", i, gp, wp)
							}
						}
						if gp, wp := got.Access(pc, taken, ghs[th]), want.Access(pc, taken, whs[th]); gp != wp {
							t.Fatalf("access %d: Access = %v, reference %v", i, gp, wp)
						}
					}
					st := got.Stats()
					if st != want.stats {
						t.Fatalf("stats %+v, reference %+v", st, want.stats)
					}
					if st.Allocations == 0 || g.fails && st.AllocFailures == 0 {
						t.Fatalf("stream did not exercise allocation (and its failure): %+v", st)
					}
					t.Logf("%+v", st)
				})
			}
		}
	}
}

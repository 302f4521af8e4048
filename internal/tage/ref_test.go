package tage

import (
	"math/bits"
	"testing"

	"hybp/internal/rng"
)

// refTage is the array-of-structs tagged-table predictor the flat banks
// replaced, kept as a differential reference: one slice of 6-byte entries
// per table, and an allocation that recomputes every table's index. Its
// statistical corrector, loop predictor and bimodal base are the package's
// own, so a divergence from Tage can only come from the tagged tables.
type refTage struct {
	cfg      Config
	tables   [][]refEntry
	masks    []uint64
	tagMasks []uint64
	base     *Bimodal
	xform    IndexTransform

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
	if cfg.UseSC {
		t.sc = newStatCorrector(cfg.SCBiasEntries, cfg.SCGEntries)
	}
	if cfg.UseLoop {
		t.loop = newLoopPredictor(cfg.Seed^0x100b, cfg.LoopSets)
	}
	return t
}

func (t *refTage) index(ti int, pc uint64, hs *History) (uint64, uint64) {
	f := &hs.folds[ti]
	idx := (pc >> 1) ^ (pc >> uint(1+ti)) ^ f.idxComp() ^ (hs.path & 0x3F)
	idx &= t.masks[ti]
	tag := ((pc >> 1) ^ f.tag0Comp() ^ (f.tag1Comp() << 1)) & t.tagMasks[ti]
	if t.xform != nil {
		idx, tag = t.xform(ti, pc, idx, tag)
		idx &= t.masks[ti]
		tag &= t.tagMasks[ti]
	}
	return idx, tag
}

func (t *refTage) lookup(pc uint64, hs *History) refLookup {
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

func (t *refTage) Predict(pc uint64, hs *History) bool {
	res := t.lookup(pc, hs)
	pred := res.tagePred
	if t.loop != nil {
		if lp, ok, conf := t.loop.predict(pc); ok && conf {
			pred = lp
		}
	}
	if t.sc != nil && res.provider >= 0 {
		e := &t.tables[res.provider][res.providerIdx]
		if weakCtr(e.ctr) {
			if scPred, use := t.sc.predict(pc, hs, pred); use {
				pred = scPred
			}
		}
	}
	return pred
}

func (t *refTage) Access(pc uint64, taken bool, hs *History) bool {
	t.stats.Predictions++
	res := t.lookup(pc, hs)
	pred := res.tagePred
	finalIsLoop := false
	if t.loop != nil {
		if lp, ok, conf := t.loop.predict(pc); ok && conf {
			pred = lp
			finalIsLoop = true
			t.stats.LoopHits++
		}
	}
	scUsed := false
	scPred := pred
	if t.sc != nil && res.provider >= 0 && !finalIsLoop {
		e := &t.tables[res.provider][res.providerIdx]
		if weakCtr(e.ctr) {
			if sp, use := t.sc.predict(pc, hs, res.tagePred); use {
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
	hs.Update(pc, taken)
	return pred
}

func (t *refTage) train(pc uint64, taken bool, hs *History, res refLookup, scUsed bool, scPred bool) {
	if t.loop != nil {
		t.loop.update(pc, taken, res.tagePred)
	}
	if t.sc != nil && scUsed {
		t.sc.update(pc, hs, taken, scPred)
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

func (t *refTage) allocate(pc uint64, taken bool, hs *History, provider int) {
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
	if t.sc != nil {
		t.sc.flush()
	}
	if t.loop != nil {
		t.loop.flush()
	}
}

func (t *refTage) Flush() {
	t.FlushTagged()
	t.base.Flush()
	t.useAltOnNA = 0
}

// refResetHistory is the history reset the O(1) one replaced: clear the
// buffer and path, then rebuild every fold lane bit by bit from the
// cleared buffer with the reference fold.
func refResetHistory(hs *History) {
	hs.ghr.Reset()
	hs.path = 0
	for i := range hs.folds {
		f := &hs.folds[i]
		f.packed = 0
		for lane, w := range [3]uint8{f.cIdx, f.cTag0, f.cTag1} {
			ref := newFolded(int(f.origLen), int(w))
			ref.reset(hs.ghr)
			f.packed |= uint64(ref.comp) << (foldLaneBits * uint(lane))
		}
	}
}

// keyedTransform is a HyBP-style transform: a per-(pc, table) key XORed
// into the index and a per-table slice of a content key into the tag.
func keyedTransform(table int, pc, idx, tag uint64) (uint64, uint64) {
	k := (pc + uint64(table)<<1) * 0x9E3779B97F4A7C15 >> 17
	ck := uint64(0xC3A5C85C97CB3127) >> (uint(table) % 32)
	return idx ^ k, tag ^ (ck & 0x7FF)
}

// TestTageMatchesReference drives the flat-bank Tage and the
// array-of-structs reference with identical streams and asserts every
// prediction and the final statistics agree. Half the accesses are random
// PCs over 16K branches with random outcomes, which keep allocation
// frequent; the other half go to 32 hot branches whose outcome follows the
// last two outcomes, which tagged entries learn and so mark useful. On the
// three-table 16-entry geometry those useful entries make allocation fail
// and the useful-counter decay run. Flushes and history resets land
// mid-stream, and the run is long enough for ageUseful to fire.
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
		for _, xf := range []struct {
			name string
			fn   IndexTransform
		}{{"identity", nil}, {"keyed", keyedTransform}} {
			t.Run(g.name+"/"+xf.name, func(t *testing.T) {
				got, want := New(g.cfg), newRef(g.cfg)
				got.SetIndexTransform(xf.fn)
				want.xform = xf.fn
				ghs, whs := got.NewHistory(), got.NewHistory()
				r := rng.New(99)
				var last uint64
				for i := 0; i < n; i++ {
					switch i {
					case 50_000:
						got.FlushTagged()
						want.FlushTagged()
					case 100_000:
						ghs.Reset()
						refResetHistory(whs)
					case 150_000:
						got.Flush()
						want.Flush()
						ghs.Reset()
						refResetHistory(whs)
					}
					b := uint64(r.Intn(1 << 14))
					taken := r.Bool(0.6)
					if r.Bool(0.5) {
						b &= 31
						taken = bits.OnesCount64((last^b)&3)&1 == 0
					}
					// Hot PCs are multiples of 8 so their path bit is 0.
					pc := 0x4000_0000 + b*8
					last <<= 1
					if taken {
						last |= 1
					}
					if i%7 == 0 {
						if gp, wp := got.Predict(pc, ghs), want.Predict(pc, whs); gp != wp {
							t.Fatalf("access %d: Predict = %v, reference %v", i, gp, wp)
						}
					}
					if gp, wp := got.Access(pc, taken, ghs), want.Access(pc, taken, whs); gp != wp {
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

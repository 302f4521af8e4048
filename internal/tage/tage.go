package tage

import (
	"math"
	"math/bits"

	"hybp/internal/rng"
)

// TableSpec describes one tagged TAGE table.
type TableSpec struct {
	// Entries is the number of entries (power of two).
	Entries int
	// TagBits is the partial tag width (8 or 11 in the paper's instance).
	TagBits int
	// UBits is the useful-counter width (1 or 2).
	UBits int
	// HistLen is the global history length hashed into this table's index.
	HistLen int
}

// entryBits is the storage width of one entry: tag + 3-bit signed counter +
// useful bits (12 bits and 16 bits for the paper's two bank groups).
func (s TableSpec) entryBits() int { return s.TagBits + 3 + s.UBits }

// Config describes a TAGE-SC-L instance.
type Config struct {
	// Tables lists the tagged tables, shortest history first.
	Tables []TableSpec
	// BimodalEntries sizes the base predictor's prediction array.
	BimodalEntries int
	// SCBiasEntries and SCGEntries size the statistical corrector's bias
	// and history tables (defaults 4096 and 1024 when zero); LoopSets
	// sizes the loop predictor (default 16 sets of 4 ways). Scaled-down
	// partitions shrink these along with the tagged tables.
	SCBiasEntries int
	SCGEntries    int
	LoopSets      int
	// Seed seeds the allocation RNG.
	Seed uint64
}

// DefaultConfig returns the paper's TAGE-SC-L geometry (Figure 3 caption):
// thirty 1K-entry tagged tables — ten 12-bit-entry banks with 8-bit tags and
// twenty 16-bit-entry banks with 11-bit tags — over an 8 Kbit/4 Kbit bimodal
// base, with SC and loop components. History lengths grow geometrically from
// 4 to 640.
func DefaultConfig(seed uint64) Config {
	tables := make([]TableSpec, 30)
	const minHist, maxHist = 4.0, 640.0
	ratio := 1.0
	if len(tables) > 1 {
		ratio = math.Pow(maxHist/minHist, 1.0/float64(len(tables)-1))
	}
	h := minHist
	prev := 0
	for i := range tables {
		hl := int(h + 0.5)
		if hl <= prev {
			hl = prev + 1
		}
		prev = hl
		spec := TableSpec{Entries: 1024, HistLen: hl}
		if i < 10 {
			spec.TagBits, spec.UBits = 8, 1
		} else {
			spec.TagBits, spec.UBits = 11, 2
		}
		tables[i] = spec
		h *= ratio
	}
	return Config{
		Tables:         tables,
		BimodalEntries: 8192,
		SCBiasEntries:  defaultSCBiasEntries,
		SCGEntries:     defaultSCGEntries,
		LoopSets:       defaultLoopSets,
		Seed:           seed,
	}
}

// SmallConfig returns a scaled-down instance for fast unit tests.
func SmallConfig(seed uint64) Config {
	tables := []TableSpec{
		{Entries: 256, TagBits: 8, UBits: 1, HistLen: 4},
		{Entries: 256, TagBits: 8, UBits: 1, HistLen: 8},
		{Entries: 256, TagBits: 11, UBits: 2, HistLen: 16},
		{Entries: 256, TagBits: 11, UBits: 2, HistLen: 32},
		{Entries: 256, TagBits: 11, UBits: 2, HistLen: 64},
	}
	return Config{Tables: tables, BimodalEntries: 1024, Seed: seed}
}

// withDefaults fills the zero-valued SC and loop sizes.
func (c Config) withDefaults() Config {
	if c.SCBiasEntries == 0 {
		c.SCBiasEntries = defaultSCBiasEntries
	}
	if c.SCGEntries == 0 {
		c.SCGEntries = defaultSCGEntries
	}
	if c.LoopSets == 0 {
		c.LoopSets = defaultLoopSets
	}
	return c
}

// StorageBits returns the storage cost in bits of a predictor of this
// geometry, excluding the swappable bimodal base (BimodalStorageBits):
// the tagged tables, the statistical corrector's 6-bit counters and the
// loop predictor's 37-bit entries.
func (c Config) StorageBits() int {
	c = c.withDefaults()
	n := 0
	for _, s := range c.Tables {
		n += s.Entries * s.entryBits()
	}
	n += 6 * (c.SCBiasEntries + 3*c.SCGEntries)
	return n + c.LoopSets*loopWays*loopEntryBits
}

// maxTables bounds the tagged-table count: lookup masks table ti's PC
// shift count 1+ti with 63, and the kernel's hit mask has one bit per
// table. maxEntries bounds a table's size: its index fold is at most 15
// bits wide, the width foldShift's carry handles.
const (
	maxTables  = 63
	maxEntries = 1 << foldCarryBit
)

// tagValid marks an occupied tagged entry: the tag array holds
// tag|tagValid, so an empty entry (0) matches no lookup and a lookup
// compares one uint16. Tags are therefore at most 15 bits wide.
const tagValid = 1 << 15

// tagvPad is the tail padding of the tag array, in entries: the lookup
// kernel gathers 8 bytes at each table's entry, so up to 3 entries past
// the last one are read (and ignored).
const tagvPad = 4

// Stats counts predictor activity.
type Stats struct {
	Predictions    uint64
	Mispredictions uint64
	ProviderHits   uint64 // predictions served by a tagged table
	BaseHits       uint64 // predictions served by the bimodal base
	SCFlips        uint64 // predictions overridden by the statistical corrector
	LoopHits       uint64 // predictions served by the loop predictor
	Allocations    uint64
	AllocFailures  uint64
}

// Tage is a TAGE-SC-L direction predictor.
//
// The tagged tables are shared structures, keyed per access by the index
// and tag keys SetKeys installs (HyBP's randomization; zero for every
// other mechanism); the bimodal base is a swappable component so mechanisms
// can physically isolate it per context; per-thread speculation history
// lives in History values created by NewHistory.
type Tage struct {
	cfg Config
	// The bank geometry, one array per field as the lookup kernel reads
	// it: table ti's entry 0 sits at position off[ti] of the flat arrays,
	// its index mask is mask[ti] (Entries-1) and its tag mask tagMask[ti]
	// (1<<TagBits-1). Like every per-table array here, each has one
	// element per table and a zero tail up to a multiple of kernelWidth in
	// its capacity.
	off, mask, tagMask []uint64
	// The tagged entries of all tables as one struct of arrays: the tag
	// word (tag|tagValid, 0 when empty), the 3-bit signed prediction
	// counter (sign = direction) and the useful counter. Table ti owns
	// positions [off[ti], off[ti]+Entries). tagv's backing array has
	// tagvPad spare zero entries for the kernel's gathers.
	tagv []uint16
	ctr  []int8
	u    []uint8
	// slotPos and slotTag hold each table's entry for the current access,
	// its position in the flat arrays and the tag word a hit there holds:
	// lookup fills them, and allocate reads them instead of hashing again.
	slotPos, slotTag []uint64
	foldGeom         *foldGeom // the fold constants every History shares
	base             *Bimodal
	// idxKeys and tagKeys are XORed into each table's index and tag
	// before masking: HyBP's per-context keys, or zeroKeys.
	idxKeys, tagKeys []uint64

	useAltOnNA int8 // 4-bit counter choosing alt prediction for fresh entries
	tick       uint64

	sc   *statCorrector
	loop *loopPredictor
	rand *rng.Rand

	stats Stats
}

// New builds a Tage from cfg.
func New(cfg Config) *Tage {
	cfg = cfg.withDefaults()
	if len(cfg.Tables) == 0 {
		panic("tage: config needs at least one tagged table")
	}
	if len(cfg.Tables) > maxTables {
		panic("tage: config allows at most 63 tagged tables")
	}
	n := len(cfg.Tables)
	t := &Tage{
		cfg:     cfg,
		off:     padded(n),
		mask:    padded(n),
		tagMask: padded(n),
		slotPos: padded(n),
		slotTag: padded(n),
		base:    NewBimodal(cfg.BimodalEntries),
		rand:    rng.New(cfg.Seed ^ 0x7a6e),
	}
	t.SetKeys(nil, nil)
	total := 0
	for i, spec := range cfg.Tables {
		if spec.Entries <= 0 || spec.Entries&(spec.Entries-1) != 0 {
			panic("tage: table entries must be a positive power of two")
		}
		if spec.Entries > maxEntries {
			panic("tage: a tagged table holds at most 32768 entries")
		}
		if spec.TagBits < 2 || spec.TagBits > 15 {
			panic("tage: tag width must be 2 to 15 bits")
		}
		t.off[i], t.mask[i], t.tagMask[i] = uint64(total), uint64(spec.Entries-1), 1<<uint(spec.TagBits)-1
		total += spec.Entries
	}
	t.tagv = make([]uint16, total+tagvPad)[:total]
	t.ctr, t.u = make([]int8, total), make([]uint8, total)
	t.foldGeom = newFoldGeom(cfg.Tables)
	t.sc = newStatCorrector(cfg.SCBiasEntries, cfg.SCGEntries)
	t.loop = newLoopPredictor(cfg.Seed^0x100b, cfg.LoopSets)
	return t
}

// NewHistory allocates per-thread history state matching this predictor's
// geometry.
func (t *Tage) NewHistory() *History {
	maxLen := 0
	for _, s := range t.cfg.Tables {
		if s.HistLen > maxLen {
			maxLen = s.HistLen
		}
	}
	return &History{
		ghr:  NewHistoryBuffer(maxLen + 64),
		fold: padded(len(t.cfg.Tables)),
		geom: t.foldGeom,
	}
}

func bitsFor(n int) int {
	b := 0
	for v := n; v > 1; v >>= 1 {
		b++
	}
	return b
}

// zeroKeys is the unkeyed mapping's key slice: XORing zero changes no
// index or tag, so an unkeyed lookup runs the same loop as a keyed one.
var zeroKeys [maxTables]uint64

// SetKeys makes idx[ti] and tag[ti] the keys XORed into tagged table ti's
// index and tag (before masking to the table's size and tag width) until
// the next SetKeys. HyBP sets its accessing context's keys before every
// conditional branch; nil for both restores the plain mapping. Non-nil
// slices must hold one key per tagged table. The predictor reads the
// slices in place, so the caller must not change them while they are set.
func (t *Tage) SetKeys(idx, tag []uint64) {
	n := len(t.off)
	if idx == nil && tag == nil {
		idx, tag = zeroKeys[:n], zeroKeys[:n]
	}
	if len(idx) != n || len(tag) != n {
		panic("tage: SetKeys needs one index key and one tag key per tagged table")
	}
	t.idxKeys, t.tagKeys = idx, tag
}

// SetBase swaps the bimodal base predictor (HyBP's per-context physical
// isolation); it returns the previous base.
func (t *Tage) SetBase(b *Bimodal) *Bimodal {
	old := t.base
	t.base = b
	return old
}

// Base returns the current bimodal base.
func (t *Tage) Base() *Bimodal { return t.base }

// Stats returns a copy of the accumulated statistics.
func (t *Tage) Stats() Stats { return t.stats }

// ResetStats zeroes statistics.
func (t *Tage) ResetStats() { t.stats = Stats{} }

// lookupResult is what lookup found: the provider (longest matching
// table) and the alternate prediction.
type lookupResult struct {
	provider    int    // table index, -1 if none
	providerPos uint64 // provider entry's position in the flat arrays
	altPred     bool
	altFromBase bool
	providerNew bool // provider entry looks newly allocated
	tagePred    bool
}

// lookup finds the provider (the longest-history table whose entry
// matches) and the alternate (the next one down), recording each table's
// entry in slotPos/slotTag for allocate. The AVX2 kernel hashes and
// compares every table and returns the hits as a bitmask, whose top two
// set bits are the provider and the alternate; the portable loop stops
// once it has both. Either way every table above the provider is
// recorded, which is all allocate reads.
func (t *Tage) lookup(pc uint64, hs *History) lookupResult {
	var provider, alt int
	if useKernels {
		n := len(t.off)
		hits := lookupAVX2(pc, hs.path, &hs.fold[0], &t.idxKeys[0], &t.tagKeys[0],
			&t.off[0], &t.mask[0], &t.tagMask[0], &t.tagv[0], &t.slotPos[0], &t.slotTag[0], n)
		hits &= 1<<uint(n) - 1 // padding lanes may match
		provider = bits.Len64(hits) - 1
		alt = bits.Len64(hits&^(1<<uint(provider&63))) - 1
	} else {
		provider, alt = t.lookupTables(pc, hs)
	}
	res := lookupResult{provider: provider}
	if alt >= 0 {
		res.altPred = t.ctr[t.slotPos[alt]] >= 0
	} else {
		res.altPred = t.base.Predict(pc)
		res.altFromBase = true
	}
	if provider >= 0 {
		pos := t.slotPos[provider]
		res.providerPos = pos
		res.providerNew = t.u[pos] == 0 && weakCtr(t.ctr[pos])
		pred := t.ctr[pos] >= 0
		if res.providerNew && t.useAltOnNA >= 0 {
			pred = res.altPred
		}
		res.tagePred = pred
	} else {
		res.tagePred = res.altPred
	}
	return res
}

// lookupTables is lookup's portable path and the kernel's reference: it
// walks the tables from the longest history down, recording each visited
// table's entry, and returns the provider and the alternate (-1 when
// absent) as soon as it has both.
//
// Each table's index and tag hash is computed inline from locals: the
// loop body is a handful of register operations, two key loads and the tag
// load, with no call and no branch on whether keys are set. Table ti's PC
// term is pc >> (1+ti); New caps the table count at 63, so masking the
// count with 63 changes nothing and drops Go's oversized-shift guard.
func (t *Tage) lookupTables(pc uint64, hs *History) (provider, alt int) {
	n := len(t.off)
	off, mask, tagMask := t.off[:n], t.mask[:n], t.tagMask[:n]
	slotPos, slotTag := t.slotPos[:n], t.slotTag[:n]
	fold := hs.fold[:n]
	idxKeys, tagKeys := t.idxKeys[:n], t.tagKeys[:n]
	tagv := t.tagv
	pc1, path := pc>>1, hs.path&0x3F
	provider = -1
	for ti := n - 1; ti >= 0; ti-- {
		p := fold[ti]
		idx := (pc1 ^ pc>>((1+uint(ti))&63) ^ p&foldLaneMask ^ path ^ idxKeys[ti]) & mask[ti]
		// The tag mask (at most 15 bits, see New) also clears the tag-1
		// lane that p>>foldLaneBits leaves above the tag lane.
		tag := (pc1 ^ p>>foldLaneBits ^ p>>(2*foldLaneBits)<<1 ^ tagKeys[ti]) & tagMask[ti]
		pos, tw := off[ti]+idx, tag|tagValid
		slotPos[ti], slotTag[ti] = pos, tw
		if uint64(tagv[pos]) == tw {
			if provider >= 0 {
				return provider, ti
			}
			provider = ti
		}
	}
	return provider, -1
}

// Predict returns the final TAGE-SC-L prediction for pc without updating
// any state. Attack harnesses use it to probe; the simulation fast path is
// Access.
func (t *Tage) Predict(pc uint64, hs *History) bool {
	res := t.lookup(pc, hs)
	pred := res.tagePred
	if lp, ok, conf := t.loop.predict(pc); ok && conf {
		pred = lp
	}
	if res.provider >= 0 && weakCtr(t.ctr[res.providerPos]) {
		if scPred, use := t.sc.predict(pc, hs, pred); use {
			pred = scPred
		}
	}
	return pred
}

// Access predicts pc, then trains the predictor with the actual outcome,
// returning the prediction. It is the single-pass API the pipeline model
// uses (prediction and resolution are adjacent in a serial simulation).
func (t *Tage) Access(pc uint64, taken bool, hs *History) bool {
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
	if res.provider >= 0 && !finalIsLoop && weakCtr(t.ctr[res.providerPos]) {
		if sp, use := t.sc.predict(pc, hs, res.tagePred); use {
			scPred = sp
			scUsed = true
			if sp != pred {
				t.stats.SCFlips++
				pred = sp
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

func weakCtr(c int8) bool { return c == 0 || c == -1 }

// train applies the TAGE update rules.
func (t *Tage) train(pc uint64, taken bool, hs *History, res lookupResult, scUsed bool, scPred bool) {
	t.loop.update(pc, taken, res.tagePred)
	if scUsed {
		t.sc.update(pc, hs, taken, scPred)
	}

	if res.provider >= 0 {
		ctr, u := &t.ctr[res.providerPos], &t.u[res.providerPos]
		provPred := *ctr >= 0

		// useAltOnNA bookkeeping: learn whether fresh entries beat the
		// alternate prediction.
		if res.providerNew && provPred != res.altPred {
			if provPred == taken {
				if t.useAltOnNA > -8 {
					t.useAltOnNA--
				}
			} else if t.useAltOnNA < 7 {
				t.useAltOnNA++
			}
		}

		// Useful counter: provider proved (un)useful versus the alternate.
		if provPred != res.altPred {
			maxU := uint8(1)<<uint(t.cfg.Tables[res.provider].UBits) - 1
			if provPred == taken {
				if *u < maxU {
					*u++
				}
			} else if *u > 0 {
				*u--
			}
		}

		// Train the provider counter.
		*ctr = satUpdate(*ctr, taken)

		// Train the base when it supplied the alternate for a fresh entry,
		// keeping the fallback warm.
		if res.altFromBase && res.providerNew {
			t.base.Update(pc, taken)
		}

		if res.tagePred != taken {
			t.allocate(taken, res.provider)
		}
	} else {
		t.base.Update(pc, taken)
		if res.tagePred != taken {
			t.allocate(taken, -1)
		}
	}

	t.tick++
	if t.tick&(1<<18-1) == 0 {
		t.ageUseful()
	}
}

// allocate tries to claim an entry in a table with longer history than the
// provider, per the TAGE allocation rule: pick among u==0 candidates
// (randomized start to avoid ping-pong), and on total failure decay the
// candidates' useful counters. The candidates are the entries lookup just
// recorded: it visited every table above the provider, and neither the
// history nor the keys have moved since.
func (t *Tage) allocate(taken bool, provider int) {
	n := len(t.off)
	start := provider + 1
	if start >= n {
		return
	}
	// Random skip of up to 2 tables decorrelates allocation storms.
	start += t.rand.Intn(3)
	if start >= n {
		start = n - 1
	}
	slotPos := t.slotPos[:n]
	for ti := start; ti < n; ti++ {
		pos := slotPos[ti]
		if t.u[pos] == 0 {
			t.tagv[pos] = uint16(t.slotTag[ti])
			if taken {
				t.ctr[pos] = 0
			} else {
				t.ctr[pos] = -1
			}
			t.stats.Allocations++
			return
		}
	}
	for _, pos := range slotPos[provider+1:] {
		if t.u[pos] > 0 {
			t.u[pos]--
		}
	}
	t.stats.AllocFailures++
}

// ageUseful periodically halves all useful counters so stale providers can
// be reclaimed (the paper's predictor uses periodic u reset; graceful
// halving behaves equivalently at our simulation scales).
func (t *Tage) ageUseful() {
	for i := range t.u {
		t.u[i] >>= 1
	}
}

func satUpdate(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}

// FlushTagged clears the tagged tables (and SC/loop state) but not the
// base predictor; HyBP's key change makes tagged state unreachable while
// the physically isolated base is swapped separately.
func (t *Tage) FlushTagged() {
	clear(t.tagv)
	clear(t.ctr)
	clear(t.u)
	t.sc.flush()
	t.loop.flush()
}

// Flush clears all predictor state including the base.
func (t *Tage) Flush() {
	t.FlushTagged()
	t.base.Flush()
	t.useAltOnNA = 0
}

// StorageBits returns the predictor storage cost in bits, excluding the
// swappable base (query the Bimodal separately when accounting for
// replicated bases).
func (t *Tage) StorageBits() int { return t.cfg.StorageBits() }

// NumTables returns the number of tagged tables.
func (t *Tage) NumTables() int { return len(t.off) }

// TableSpecs returns the tagged-table geometry.
func (t *Tage) TableSpecs() []TableSpec { return t.cfg.Tables }

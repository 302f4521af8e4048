// Package tage implements the direction-prediction substrate: the
// TAGE-SC-L predictor of the paper's baseline core (Seznec, CBP-5 2016; the
// paper's Figure 3(b) instance), its bimodal base predictor, and the
// decades-old tournament predictor the paper compares against in Section
// VII-F.
//
// Geometry follows the paper's caption: a PC-indexed bimodal base with
// 8 Kbit prediction and 4 Kbit (shared) hysteresis arrays, and thirty
// equal-sized tagged tables in two bank groups with 8-bit and 11-bit tags,
// 1K entries each, signed prediction counters and useful counters. A
// statistical corrector and a loop predictor complete the SC-L part.
//
// The tagged tables take per-table index and tag keys as data (SetKeys),
// XORed in before masking, so HyBP (internal/secure) can randomize them per
// context without forking predictor logic; every other mechanism leaves
// them zero. The base predictor is a swappable component so HyBP can
// physically isolate it per (thread, privilege) context.
package tage

// HistoryBuffer is a circular global-history bit buffer. Bit 0 is the most
// recent outcome.
//
// The ring is stored twice over: every bit is written at pos and at
// pos+size, so the size bits from the newest backwards are always the one
// contiguous slice bits[pos:pos+size] and reading them never wraps.
type HistoryBuffer struct {
	bits []byte // 2*size: bits[i] == bits[i+size] for every i < size
	pos  int    // index of the most recent bit, in [0, size)
	size int
}

// NewHistoryBuffer returns a buffer holding size bits, all zero.
func NewHistoryBuffer(size int) *HistoryBuffer {
	return &HistoryBuffer{bits: make([]byte, 2*size), size: size}
}

// Push records a new most-recent bit.
func (h *HistoryBuffer) Push(taken bool) {
	var b byte
	if taken {
		b = 1
	}
	h.push(b)
}

// push records bit b (0 or 1) as the most recent and returns the window
// of the size most recent bits, newest first.
func (h *HistoryBuffer) push(b byte) []byte {
	pos, size, bits := h.pos-1, h.size, h.bits
	if pos < 0 {
		pos = size - 1
	}
	h.pos = pos
	bits[pos] = b
	bits[pos+size] = b
	return bits[pos : pos+size]
}

// Bit returns the i-th most recent bit (0 = newest). i must be in
// [0, Size()).
func (h *HistoryBuffer) Bit(i int) byte { return h.bits[h.pos+i] }

// Size returns the buffer capacity in bits.
func (h *HistoryBuffer) Size() int { return h.size }

// Reset zeroes the history.
func (h *HistoryBuffer) Reset() {
	clear(h.bits)
	h.pos = 0
}

// foldSet packs one tagged table's three folds (index width, tag width,
// tag width − 1) into three 24-bit lanes of a single uint64, so the
// per-branch fold maintenance — the hottest loop in the simulator — costs
// one load, one store, and lane-parallel shift/XOR/add math per table
// instead of three separate read-modify-writes. The lane arithmetic is
// exactly the single-fold reference's shift per lane (foldedHistory in the
// tests; TestFoldSetMatchesFoldedHistory pins the equivalence). New bounds
// every compLen to at most 15 (11 in the paper's geometry), so a lane
// holds at most 16 bits after the shift-in, and the 24-bit lane spacing
// (16 bits for the top lane) keeps every lane's carry out of its neighbor.
type foldSet struct {
	packed   uint64 // lanes at bits 0 (index), 24 (tag), 48 (tag-1)
	outMask  uint64 // oldBit injection point (1<<outPoint) per lane
	ovMask   uint64 // overflow bit (1<<compLen) per lane
	compMask uint64 // (1<<compLen)-1 per lane
	origLen  uint16 // shared original history window length
}

// foldLaneBits is the lane spacing; foldLaneMask covers one lane and
// foldLaneLSB has a 1 in each lane's LSB. foldCarry adds 2^15−1 to every
// lane: added to a lane holding only its overflow bit 1<<compLen (compLen
// ≤ 15), it sets the lane's bit 15 exactly when that bit is set, and
// carries no further.
const (
	foldLaneBits = 24
	foldLaneMask = 1<<foldLaneBits - 1
	foldLaneLSB  = 1 | 1<<foldLaneBits | 1<<(2*foldLaneBits)
	foldCarryBit = 15
	foldCarry    = (1<<foldCarryBit - 1) * foldLaneLSB
)

// newFoldSet builds the folds of an origLen-bit window into idxBits,
// tagBits and tagBits-1 bits. Each lane folds its outgoing bit back in at
// outPoint = origLen mod compLen.
func newFoldSet(origLen, idxBits, tagBits int) foldSet {
	f := foldSet{origLen: uint16(origLen)}
	for lane, compLen := range [3]int{idxBits, tagBits, tagBits - 1} {
		at := foldLaneBits * uint(lane)
		f.outMask |= 1 << (at + uint(origLen%compLen))
		f.ovMask |= 1 << (at + uint(compLen))
		f.compMask |= (1<<uint(compLen) - 1) << at
	}
	return f
}

// shift folds the newest bit in and oldBit out of all three lanes at once;
// in is the newest bit replicated into every lane's LSB
// ((-newBit)&foldLaneLSB). Per lane this is exactly the reference fold's
// shift: shift-in, XOR the outgoing bit at outPoint, fold the overflow bit
// (comp >> compLen, a single bit because a lane holds ≤ compLen+1 bits
// here) back into the LSB, then mask to compLen. The fold-back needs no
// per-lane variable shift: adding foldCarry to the isolated overflow bits
// moves each one to its lane's bit 15, and one constant shift brings all
// three down to the LSBs.
func (f *foldSet) shift(in, oldBit uint64) {
	p := f.packed<<1 | in
	p ^= (-oldBit) & f.outMask
	p ^= ((p & f.ovMask) + foldCarry) >> foldCarryBit & foldLaneLSB
	f.packed = p & f.compMask
}

// idxComp is the index lane, which the statistical corrector also reads.
func (f *foldSet) idxComp() uint64 { return f.packed & foldLaneMask }

// History is the per-hardware-thread speculation history consumed by a Tage
// instance: the global history register, a path history, and the folded
// images per tagged table. Each SMT thread owns one History while the
// prediction tables themselves are shared (or partitioned) per the active
// defense mechanism.
type History struct {
	ghr   *HistoryBuffer
	path  uint64
	folds []foldSet // per tagged table: index/tag/tag-1 folds, lane-packed
}

// Update pushes a resolved branch outcome into the history.
//
// The newest bit is the outcome just pushed, shared by every fold; the
// outgoing bit depends only on the window length, which the three lanes of
// a table's foldSet share — so each table costs one read of the pushed
// window and one lane-parallel shift. This loop is the hottest in the
// simulator after the lookup; keep it free of wrap checks, divisions,
// variable shifts and per-table reloads of the buffer.
func (hs *History) Update(pc uint64, taken bool) {
	var newBit uint64
	if taken {
		newBit = 1
	}
	win := hs.ghr.push(byte(newBit))
	hs.path = (hs.path << 1) | ((pc >> 2) & 1)
	in := (-newBit) & foldLaneLSB
	folds := hs.folds
	for i := range folds {
		f := &folds[i]
		f.shift(in, uint64(win[f.origLen]))
	}
}

// Reset clears all history state (used when a software context is swapped
// in with no retained predictor state). Every fold of an all-zero window is
// zero, so the folds are cleared rather than recomputed from the buffer.
func (hs *History) Reset() {
	hs.ghr.Reset()
	hs.path = 0
	for i := range hs.folds {
		hs.folds[i].packed = 0
	}
}

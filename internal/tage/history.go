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
// contiguous slice bits[pos:pos+size] and reading them never wraps. The
// backing array has historyPad spare bytes past bits' length, so the fold
// kernel's 8-byte gathers may read up to 7 bytes beyond any bit.
type HistoryBuffer struct {
	bits []byte // 2*size: bits[i] == bits[i+size] for every i < size
	pos  int    // index of the most recent bit, in [0, size)
	size int
}

// historyPad is the tail padding of the ring's backing array.
const historyPad = 8

// NewHistoryBuffer returns a buffer holding size bits, all zero.
func NewHistoryBuffer(size int) *HistoryBuffer {
	return &HistoryBuffer{bits: make([]byte, 2*size+historyPad)[:2*size], size: size}
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

// Each tagged table keeps three folds of its history window (index width,
// tag width, tag width − 1), packed into three 24-bit lanes of one uint64,
// so the per-branch fold maintenance costs one load, one store and
// lane-parallel shift/XOR/add math per table instead of three separate
// read-modify-writes. The lane arithmetic is exactly the single-fold
// reference's shift per lane (foldedHistory in the tests;
// TestFoldSetMatchesFoldedHistory pins the equivalence). New bounds every
// compLen to at most 15 (11 in the paper's geometry), so a lane holds at
// most 16 bits after the shift-in, and the 24-bit lane spacing (16 bits
// for the top lane) keeps every lane's carry out of its neighbor.
//
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

// foldGeom is the fold constants of every tagged table, one array per
// constant, as the fold kernel reads them. Each slice has one element per
// table and a zero tail up to a multiple of kernelWidth in its capacity:
// a padding lane has no window and no lanes, so its fold stays zero.
type foldGeom struct {
	outMask  []uint64 // oldBit injection point (1<<outPoint) per lane
	ovMask   []uint64 // overflow bit (1<<compLen) per lane
	compMask []uint64 // (1<<compLen)-1 per lane
	origLen  []uint64 // shared original history window length
}

// newFoldGeom builds the folds of each table's HistLen-bit window into
// index-width, TagBits and TagBits-1 bits. Each lane folds its outgoing bit
// back in at outPoint = origLen mod compLen.
func newFoldGeom(tables []TableSpec) *foldGeom {
	g := &foldGeom{
		outMask:  padded(len(tables)),
		ovMask:   padded(len(tables)),
		compMask: padded(len(tables)),
		origLen:  padded(len(tables)),
	}
	for i, s := range tables {
		g.origLen[i] = uint64(s.HistLen)
		for lane, compLen := range [3]int{bitsFor(s.Entries), s.TagBits, s.TagBits - 1} {
			at := foldLaneBits * uint(lane)
			g.outMask[i] |= 1 << (at + uint(s.HistLen%compLen))
			g.ovMask[i] |= 1 << (at + uint(compLen))
			g.compMask[i] |= (1<<uint(compLen) - 1) << at
		}
	}
	return g
}

// foldShift folds the newest bit in and oldBit out of all three lanes of
// one table's packed folds p and returns them; in is the newest bit
// replicated into every lane's LSB ((-newBit)&foldLaneLSB). Per lane this
// is exactly the reference fold's shift: shift-in, XOR the outgoing bit at
// outPoint, fold the overflow bit (comp >> compLen, a single bit because a
// lane holds ≤ compLen+1 bits here) back into the LSB, then mask to
// compLen. The fold-back needs no per-lane variable shift: adding
// foldCarry to the isolated overflow bits moves each one to its lane's bit
// 15, and one constant shift brings all three down to the LSBs. The fold
// kernel runs the same five steps on four tables at once.
func foldShift(p, in, oldBit, outMask, ovMask, compMask uint64) uint64 {
	p = p<<1 | in
	p ^= (-oldBit) & outMask
	p ^= ((p & ovMask) + foldCarry) >> foldCarryBit & foldLaneLSB
	return p & compMask
}

// History is the per-hardware-thread speculation history consumed by a Tage
// instance: the global history register, a path history, and the folded
// images per tagged table. Each SMT thread owns one History while the
// prediction tables themselves are shared (or partitioned) per the active
// defense mechanism.
type History struct {
	ghr  *HistoryBuffer
	path uint64
	// fold holds each tagged table's index/tag/tag-1 folds, lane-packed
	// (index lane at bit 0, tag at 24, tag-1 at 48), padded like geom's
	// arrays.
	fold []uint64
	geom *foldGeom // shared by every History of one Tage
}

// Update pushes a resolved branch outcome into the history.
//
// The newest bit is the outcome just pushed, shared by every fold; the
// outgoing bit depends only on the window length, which the three lanes of
// a table's folds share — so each table costs one read of the pushed
// window and one lane-parallel shift. This loop is the hottest in the
// simulator after the lookup; with AVX2 the fold kernel runs it four
// tables per instruction, and the portable loop below is kept free of wrap
// checks, divisions, variable shifts and per-table reloads of the buffer.
func (hs *History) Update(pc uint64, taken bool) {
	var newBit uint64
	if taken {
		newBit = 1
	}
	win := hs.ghr.push(byte(newBit))
	hs.path = (hs.path << 1) | ((pc >> 2) & 1)
	in := (-newBit) & foldLaneLSB
	fold, g := hs.fold, hs.geom
	if useKernels {
		foldAVX2(&fold[0], &g.outMask[0], &g.ovMask[0], &g.compMask[0], &g.origLen[0],
			&win[0], in, len(fold))
		return
	}
	outMask, ovMask := g.outMask[:len(fold)], g.ovMask[:len(fold)]
	compMask, origLen := g.compMask[:len(fold)], g.origLen[:len(fold)]
	for i := range fold {
		fold[i] = foldShift(fold[i], in, uint64(win[origLen[i]]), outMask[i], ovMask[i], compMask[i])
	}
}

// Reset clears all history state (used when a software context is swapped
// in with no retained predictor state). Every fold of an all-zero window is
// zero, so the folds are cleared rather than recomputed from the buffer.
func (hs *History) Reset() {
	hs.ghr.Reset()
	hs.path = 0
	clear(hs.fold)
}

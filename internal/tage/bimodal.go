package tage

// Bimodal is the PC-indexed base predictor of the paper's TAGE instance:
// an 8 Kbit prediction array with a 4 Kbit hysteresis array shared 2:1,
// exactly the split the Figure 3 caption gives. Together a (prediction,
// hysteresis) pair behaves as a 2-bit saturating counter whose hysteresis
// bit is shared between two neighboring branches — Seznec's storage
// optimization.
//
// In HyBP the bimodal base is physically isolated per (thread, privilege)
// context (shaded in the paper's Figure 3(b)); mechanisms achieve that by
// instantiating one Bimodal per context; HyBP points its shared TAGE at the
// accessing context's base before every conditional branch.
//
// The hysteresis array is stored inverted (a 0 byte is hysteresis 1, the
// weak-not-taken start), so a new or flushed predictor is all zero bytes
// and Flush is two clears.
type Bimodal struct {
	pred     []byte // 1 bit per entry: predicted direction
	hystInv  []byte // 1 bit per pair of entries: confidence, inverted
	predMask uint64
}

// NewBimodal builds a bimodal base with predEntries prediction bits
// (must be a power of two) and predEntries/2 hysteresis bits, every
// counter weakly not-taken (prediction 0, hysteresis 1), matching common
// practice.
func NewBimodal(predEntries int) *Bimodal {
	if predEntries <= 0 || predEntries&(predEntries-1) != 0 {
		panic("tage: bimodal entries must be a positive power of two")
	}
	return &Bimodal{
		pred:     make([]byte, predEntries),
		hystInv:  make([]byte, predEntries/2),
		predMask: uint64(predEntries - 1),
	}
}

func (b *Bimodal) index(pc uint64) uint64 { return (pc >> 1) & b.predMask }

// Predict returns the predicted direction for pc.
func (b *Bimodal) Predict(pc uint64) bool {
	return b.pred[b.index(pc)] == 1
}

// Update trains the 2-bit (prediction, shared hysteresis) counter.
func (b *Bimodal) Update(pc uint64, taken bool) {
	i := b.index(pc)
	state := b.pred[i]<<1 | (b.hystInv[i/2] ^ 1)
	if taken {
		if state < 3 {
			state++
		}
	} else {
		if state > 0 {
			state--
		}
	}
	b.pred[i] = state >> 1
	b.hystInv[i/2] = state&1 ^ 1
}

// Flush resets the predictor to its initial state.
func (b *Bimodal) Flush() {
	clear(b.pred)
	clear(b.hystInv)
}

// StorageBits returns the storage cost in bits.
func (b *Bimodal) StorageBits() int { return BimodalStorageBits(len(b.pred)) }

// BimodalStorageBits returns the storage cost in bits of a bimodal base
// with predEntries prediction bits and half as many hysteresis bits.
func BimodalStorageBits(predEntries int) int { return predEntries + predEntries/2 }

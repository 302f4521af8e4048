// Package keys implements HyBP's key management: the randomized index keys
// table ("code book") of paper Sections V-C and V-D, its precomputed refresh
// by a strong cipher, the per-(thread, privilege) key contexts, the content
// keys, and the access-counter key-change trigger of Section VI-C.
//
// The code book removes the strong cipher from the prediction critical
// path: prediction-time index randomization is a single SRAM read (the key
// for the branch's PC group) plus an XOR, while the expensive cipher runs
// only during refreshes. Refresh timing follows the paper: after a
// pipeline fill of the cipher engine (7 cycles), one SRAM word of keys is
// produced per cycle — 263 cycles for a 1K-entry, 10-bit-key table stored
// as 256 40-bit words. Execution does not stall during a refresh; lookups
// that race the fill simply read stale keys, costing only mispredictions
// (Section V-D), which the timing model charges.
//
// The simulator computes a code book's keys on first use rather than at
// the refresh: a table that is refreshed again before any read never runs
// the cipher over its book. The modelled refresh timing, the stale-key
// window and every key read are unchanged by this; only the host cost
// moves from the refresh to the first read.
package keys

import (
	"math"

	"hybp/internal/cipher"
	"hybp/internal/rng"
)

// Config describes one randomized index keys table.
type Config struct {
	// Entries is the number of index keys (as many as the last-level BTB
	// has sets, or the longest TAGE tag table has entries — paper Figure
	// 3). Power of two.
	Entries int
	// KeyBits is the width of each key (10 bits for a 1024-set L2 BTB).
	KeyBits int
	// WordBits is the SRAM word width for refresh bandwidth (40 bits in
	// the paper's example: a 1K×10b table refreshed as 256 40-bit words).
	WordBits int
	// PipeFill is the cipher engine's pipeline fill latency in cycles
	// (the paper uses 7).
	PipeFill int
	// AccessThreshold renews the code book after this many BPU accesses
	// even without a context switch (the paper sets 2^27 from the PPP
	// analysis of Section VI-A). Zero disables the counter trigger.
	AccessThreshold uint64
	// Cipher fills the code book; HyBP uses QARMA-64.
	Cipher cipher.Cipher
	// Seed stands in for the hardware RAND/PUF entropy.
	Seed uint64
}

// DefaultConfig is the paper's instance: 1K 10-bit keys, 40-bit SRAM words,
// 7-cycle pipeline fill, 2^27-access threshold, QARMA-64.
func DefaultConfig(seed uint64) Config {
	return Config{
		Entries:         1024,
		KeyBits:         10,
		WordBits:        40,
		PipeFill:        7,
		AccessThreshold: 1 << 27,
		Cipher:          cipher.NewQarma([2]uint64{rng.Mix64(seed), rng.Mix64(seed ^ 0xA5A5)}),
		Seed:            seed,
	}
}

// Table is one randomized index keys table plus its content key — the key
// material of one (thread, privilege) context.
//
// A refresh records the new book's cipher inputs; the first Key or Window
// that reads the book computes it. The previous book is read only inside
// the refresh window, so it is computed only if a stale read needs it.
type Table struct {
	cfg         Config
	cur, prev   book // current code book and the previous one, visible during the fill window
	contentKey  uint64
	keysPerWord int
	words       []uint64    // SRAM-word scratch for the batch fill
	bulk        cipher.Bulk // non-nil when cfg.Cipher batches (QARMA does)
	window      []uint64    // Window's result inside a refresh window

	seedTweak    uint64 // derived from (ASID, VMID, RAND); no software visibility
	epoch        uint64 // increments every refresh
	refreshStart uint64 // cycle the in-flight refresh began
	refreshEnd   uint64 // cycle the in-flight refresh completes
	// directFrom is the first cycle at which Key reads the current book
	// directly: refreshEnd once the book is filled, never before.
	directFrom uint64
	idxMask    uint64 // Entries - 1
	accesses   uint64 // BPU accesses since last refresh

	refreshes uint64 // total refreshes (stats)
}

// book is one code book and the cipher inputs of the epoch it serves. Its
// keys are stored twice over (keys[i] == keys[i+Entries]), so the keys of
// n consecutive entries are one slice that never wraps.
type book struct {
	keys         []uint64
	timer, tweak uint64 // the fill's cipher inputs
	filled       bool   // keys hold the fill of (timer, tweak)
}

// NewTable builds a Table whose code book holds its reset-time fill (the
// hardware fills the code book at reset, long before cycle 0 of any
// measurement).
func NewTable(cfg Config) *Table {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic("keys: Entries must be a positive power of two")
	}
	if cfg.KeyBits <= 0 || cfg.KeyBits > 64 {
		panic("keys: KeyBits out of range")
	}
	if cfg.Cipher == nil {
		panic("keys: Cipher is required")
	}
	kpw := 1
	if cfg.WordBits > cfg.KeyBits {
		kpw = cfg.WordBits / cfg.KeyBits
	}
	t := &Table{
		cfg:         cfg,
		keysPerWord: kpw,
		words:       make([]uint64, (cfg.Entries+kpw-1)/kpw),
		seedTweak:   rng.Mix64(cfg.Seed ^ 0x1D8AF),
		idxMask:     uint64(cfg.Entries - 1),
	}
	t.bulk, _ = cfg.Cipher.(cipher.Bulk)
	t.cur.keys = make([]uint64, 2*cfg.Entries)
	t.prev.keys = make([]uint64, 2*cfg.Entries)
	t.begin()
	// Before the first refresh the previous book is a copy of the current
	// one; no read reaches it, since no refresh window is open.
	t.prev.timer, t.prev.tweak = t.cur.timer, t.cur.tweak
	return t
}

// Bind derives the table's seed tweak from the software context identity:
// ASID, VMID and the hardware random value (paper Figure 4's Index Seed,
// "generated completely in hardware, with no software visibility").
func (t *Table) Bind(asid, vmid uint16) {
	t.seedTweak = rng.Mix64(uint64(asid)<<32|uint64(vmid)<<16) ^ rng.Mix64(t.cfg.Seed^0x1D8AF)
}

// begin starts a new epoch in the current book, modeling the Figure 4
// datapath: the cipher encrypts a sequence of timer readouts under the
// index seed, and successive ciphertexts fill successive SRAM words, all
// under the single tweak seed⊕epoch. The content key is one more block
// and is computed here; the words are computed by fill when first read.
func (t *Table) begin() {
	t.epoch++
	b := &t.cur
	b.timer = t.refreshStart ^ rng.Mix64(t.epoch^t.seedTweak)
	b.tweak = t.seedTweak ^ t.epoch
	b.filled = false
	t.directFrom = math.MaxUint64
	t.contentKey = t.cfg.Cipher.Encrypt(b.timer^0xC0FFEE, b.tweak)
}

// fill computes b's keys from its cipher inputs. The words are produced as
// one batch when the cipher supports it, so the tweak schedule is expanded
// once instead of once per word.
func (t *Table) fill(b *book) {
	if t.bulk != nil {
		t.bulk.EncryptBlocks(t.words, b.timer, b.tweak)
	} else {
		for w := range t.words {
			t.words[w] = t.cfg.Cipher.Encrypt(b.timer+uint64(w), b.tweak)
		}
	}
	mask := uint64(1)<<uint(t.cfg.KeyBits) - 1
	n := t.cfg.Entries
	for w, word := range t.words {
		for k := 0; k < t.keysPerWord; k++ {
			i := w*t.keysPerWord + k
			if i >= n {
				break
			}
			key := (word >> (uint(k) * uint(t.cfg.KeyBits))) & mask
			b.keys[i], b.keys[i+n] = key, key
		}
	}
	b.filled = true
	if b == &t.cur {
		t.directFrom = t.refreshEnd
	}
}

// read returns b's keys, computing them on first use.
func (t *Table) read(b *book) []uint64 {
	if !b.filled {
		t.fill(b)
	}
	return b.keys
}

// RefreshLatency is the number of cycles a full code-book refresh takes:
// pipeline fill plus one word per cycle (263 for the paper's 1K example).
func (t *Table) RefreshLatency() int {
	words := (t.cfg.Entries + t.keysPerWord - 1) / t.keysPerWord
	return t.cfg.PipeFill + words
}

// Refresh begins a code-book renewal at cycle now: the content key updates
// immediately (one cycle — paper Section V-C2), the SRAM fill proceeds in
// the background, and the access counter resets. Lookups during the fill
// window return stale keys for not-yet-written entries.
func (t *Table) Refresh(now uint64) {
	// If a refresh is still in flight, the new one supersedes it: the
	// stale keys are the superseded epoch's, whose fill was never seen
	// whole, which is the conservative (more stale) assumption.
	t.cur, t.prev = t.prev, t.cur
	t.refreshStart = now
	t.refreshEnd = now + uint64(t.RefreshLatency())
	t.begin()
	t.accesses = 0
	t.refreshes++
}

// freshAt returns the cycle at which entry i holds its new value during the
// in-flight refresh.
func (t *Table) freshAt(i int) uint64 {
	word := i / t.keysPerWord
	return t.refreshStart + uint64(t.cfg.PipeFill) + uint64(word) + 1
}

// entryIndex selects the code-book entry for a branch PC ("indexed by a
// part of the branch's PC", Section V-C1).
func (t *Table) entryIndex(pc uint64) int {
	return int(pc >> 1 & t.idxMask)
}

// Key returns the index key for pc at cycle now, honoring the stale-key
// window of an in-flight refresh. HyBP's last-level BTB mapping calls it on
// every access, so it is kept within the inlining budget: the common case
// is one load from the filled current book, and the rest is keySlow.
func (t *Table) Key(pc uint64, now uint64) uint64 {
	if now < t.directFrom {
		return t.keySlow(pc, now)
	}
	return t.cur.keys[pc>>1&t.idxMask]
}

// keySlow is Key inside a refresh window, where pc's entry may still hold
// the previous book's key, or before the current book's first read fills
// it. It is never inlined, so that Key can be.
//
//go:noinline
func (t *Table) keySlow(pc uint64, now uint64) uint64 {
	i := t.entryIndex(pc)
	b := &t.cur
	if now < t.refreshEnd && now < t.freshAt(i) {
		b = &t.prev
	}
	return t.read(b)[i]
}

// Window returns the index keys of the n PC groups from pc's on,
// Key(pc+2j, now) for j in [0, n), as HyBP's TAGE reads one per tagged
// table. Outside a refresh window it is a slice of the current code book;
// inside one (or when n exceeds Entries, so the groups wrap past the
// book's end more than once) it is a vector in the table's scratch. Either
// way it is valid until the table's next Refresh or Window call, and must
// not be written.
func (t *Table) Window(pc uint64, now uint64, n int) []uint64 {
	if now < t.refreshEnd || n > t.cfg.Entries {
		if cap(t.window) < n {
			t.window = make([]uint64, n)
		}
		w := t.window[:n]
		for j := range w {
			w[j] = t.Key(pc+uint64(j)<<1, now)
		}
		return w
	}
	i := t.entryIndex(pc)
	return t.read(&t.cur)[i : i+n : i+n]
}

// KeyStale reports whether a Key lookup at cycle now would return a stale
// (pre-refresh) key; the pipeline model uses it to attribute refresh-window
// mispredictions.
func (t *Table) KeyStale(pc uint64, now uint64) bool {
	return now < t.refreshEnd && now < t.freshAt(t.entryIndex(pc))
}

// ContentKey returns the current content key; it is updated in a single
// cycle at refresh start, so it is never stale.
func (t *Table) ContentKey() uint64 { return t.contentKey }

// Epoch returns the refresh epoch; distinct epochs imply disjoint key
// material.
func (t *Table) Epoch() uint64 { return t.epoch }

// RefreshInFlight reports whether the code book is mid-fill at cycle now.
func (t *Table) RefreshInFlight(now uint64) bool { return now < t.refreshEnd }

// NoteAccess counts one BPU access (speculative or not — the paper counts
// both with a dedicated counter) and reports whether the access threshold
// has been reached, in which case the caller should Refresh.
func (t *Table) NoteAccess() bool {
	t.accesses++
	return t.cfg.AccessThreshold != 0 && t.accesses >= t.cfg.AccessThreshold
}

// Accesses returns the access count since the last refresh.
func (t *Table) Accesses() uint64 { return t.accesses }

// Refreshes returns the total number of refreshes performed.
func (t *Table) Refreshes() uint64 { return t.refreshes }

// StorageBits is the SRAM cost of the code book (1.25 KB for the paper's
// 1K×10b table).
func (t *Table) StorageBits() int { return t.cfg.StorageBits() }

// StorageBits is the SRAM cost of one code book of this configuration.
func (c Config) StorageBits() int { return c.Entries * c.KeyBits }

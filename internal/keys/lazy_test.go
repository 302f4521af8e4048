package keys

import (
	"testing"

	"hybp/internal/cipher"
	"hybp/internal/rng"
)

// eagerTable is the code-book model as it runs in hardware and as Table
// ran before its fills were deferred: every Refresh copies the current
// book into the old one and fills the new book at once. It is the
// reference the deferred Table must match read for read.
type eagerTable struct {
	cfg          Config
	keys, old    []uint64
	contentKey   uint64
	kpw          int
	seedTweak    uint64
	epoch        uint64
	refreshStart uint64
	refreshEnd   uint64
}

func newEager(cfg Config) *eagerTable {
	kpw := 1
	if cfg.WordBits > cfg.KeyBits {
		kpw = cfg.WordBits / cfg.KeyBits
	}
	t := &eagerTable{
		cfg:       cfg,
		keys:      make([]uint64, cfg.Entries),
		old:       make([]uint64, cfg.Entries),
		kpw:       kpw,
		seedTweak: rng.Mix64(cfg.Seed ^ 0x1D8AF),
	}
	t.fill()
	copy(t.old, t.keys)
	return t
}

func (t *eagerTable) Bind(asid, vmid uint16) {
	t.seedTweak = rng.Mix64(uint64(asid)<<32|uint64(vmid)<<16) ^ rng.Mix64(t.cfg.Seed^0x1D8AF)
}

func (t *eagerTable) fill() {
	t.epoch++
	mask := uint64(1)<<uint(t.cfg.KeyBits) - 1
	timer := t.refreshStart ^ rng.Mix64(t.epoch^t.seedTweak)
	tweak := t.seedTweak ^ t.epoch
	for i := range t.keys {
		word := t.cfg.Cipher.Encrypt(timer+uint64(i/t.kpw), tweak)
		t.keys[i] = word >> (uint(i%t.kpw) * uint(t.cfg.KeyBits)) & mask
	}
	t.contentKey = t.cfg.Cipher.Encrypt(timer^0xC0FFEE, tweak)
}

func (t *eagerTable) Refresh(now uint64) {
	copy(t.old, t.keys)
	t.refreshStart = now
	t.refreshEnd = now + uint64(t.cfg.PipeFill+(t.cfg.Entries+t.kpw-1)/t.kpw)
	t.fill()
}

func (t *eagerTable) stale(pc, now uint64) bool {
	i := int(pc >> 1 & uint64(t.cfg.Entries-1))
	return now < t.refreshEnd && now < t.refreshStart+uint64(t.cfg.PipeFill)+uint64(i/t.kpw)+1
}

func (t *eagerTable) Key(pc, now uint64) uint64 {
	i := int(pc >> 1 & uint64(t.cfg.Entries-1))
	if t.stale(pc, now) {
		return t.old[i]
	}
	return t.keys[i]
}

// TestDeferredFillMatchesEager drives a deferred Table and the eager
// reference through the same random schedule and compares every read.
// Refreshes come at random gaps: some land inside the previous refresh's
// window (superseding a fill still in flight), and many epochs pass with
// no read at all, so their books are never computed. Reads fall before,
// inside and after the refresh windows, and Window is read at the TAGE's
// width and at a width wider than the book.
func TestDeferredFillMatchesEager(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"qarma", DefaultConfig(5)},
		{"xor-64x8", Config{Entries: 64, KeyBits: 8, WordBits: 40, PipeFill: 3, Cipher: cipher.NewXOR(9), Seed: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := NewTable(tc.cfg), newEager(tc.cfg)
			latency := uint64(got.RefreshLatency())
			r := rng.New(11)
			now := uint64(0)
			for step := 0; step < 3000; step++ {
				switch v := r.Intn(10); {
				case v < 3:
					// Refresh, half the time with a rebind first.
					if r.Bool(0.5) {
						asid := uint16(r.Intn(8))
						got.Bind(asid, 0)
						want.Bind(asid, 0)
					}
					got.Refresh(now)
					want.Refresh(now)
				case v < 5:
					// An epoch that is never read: refresh again before
					// any read.
					got.Refresh(now)
					want.Refresh(now)
					now += uint64(r.Intn(int(2 * latency)))
					got.Refresh(now)
					want.Refresh(now)
				default:
					pc := r.Uint64() &^ 1
					if got.Key(pc, now) != want.Key(pc, now) {
						t.Fatalf("step %d: Key(%#x, %d) = %d, eager %d", step, pc, now, got.Key(pc, now), want.Key(pc, now))
					}
					if got.KeyStale(pc, now) != want.stale(pc, now) {
						t.Fatalf("step %d: KeyStale(%#x, %d) = %v, eager %v", step, pc, now, got.KeyStale(pc, now), want.stale(pc, now))
					}
					for _, n := range []int{30, tc.cfg.Entries + 7} {
						w := got.Window(pc, now, n)
						if len(w) != n {
							t.Fatalf("step %d: Window of %d keys has %d", step, n, len(w))
						}
						for j, k := range w {
							if e := want.Key(pc+uint64(j)<<1, now); k != e {
								t.Fatalf("step %d: Window(%#x, %d, %d)[%d] = %d, eager Key %d", step, pc, now, n, j, k, e)
							}
						}
					}
				}
				if got.Epoch() != want.epoch || got.ContentKey() != want.contentKey {
					t.Fatalf("step %d: epoch %d content key %#x, eager %d %#x",
						step, got.Epoch(), got.ContentKey(), want.epoch, want.contentKey)
				}
				// Advance by up to two refresh latencies, so reads land
				// both inside and after the windows.
				now += uint64(r.Intn(int(2 * latency)))
			}
		})
	}
}

// countingCipher counts the blocks its wrapped cipher encrypts. It does not
// batch, so a code-book fill costs one Encrypt per SRAM word.
type countingCipher struct {
	cipher.Cipher
	blocks int
}

func (c *countingCipher) Encrypt(block, tweak uint64) uint64 {
	c.blocks++
	return c.Cipher.Encrypt(block, tweak)
}

// TestRefreshWithoutReadEncryptsOnlyContentKey: a refresh encrypts the
// one content-key block; the 256 words of a 1K-entry book are encrypted
// when a read first needs them, and a book never read between two
// refreshes is never encrypted.
func TestRefreshWithoutReadEncryptsOnlyContentKey(t *testing.T) {
	c := &countingCipher{Cipher: cipher.NewXOR(3)}
	cfg := DefaultConfig(1)
	cfg.Cipher = c
	tbl := NewTable(cfg)
	const words = 256
	if c.blocks != 1 {
		t.Fatalf("NewTable encrypted %d blocks, want 1 (the content key)", c.blocks)
	}
	for i := 1; i <= 5; i++ {
		tbl.Refresh(uint64(i) * 10_000)
		if c.blocks != 1+i {
			t.Fatalf("after %d unread refreshes: %d blocks encrypted, want %d", i, c.blocks, 1+i)
		}
	}
	// After the window only the current book is read: one fill, once.
	tbl.Key(0, 60_000)
	tbl.Window(0, 60_000, 30)
	if c.blocks != 6+words {
		t.Fatalf("after reading past the window: %d blocks, want %d", c.blocks, 6+words)
	}
	// Inside the next window a stale read fills the previous book, which
	// is the book just read; it is already filled.
	tbl.Refresh(70_000)
	tbl.Key(2*1023, 70_000)
	if c.blocks != 7+words {
		t.Fatalf("stale read of a filled previous book: %d blocks, want %d", c.blocks, 7+words)
	}
	// Two refreshes in a row leave an unread previous book: a stale read
	// fills it, a fresh read fills the current one.
	tbl.Refresh(80_000)
	tbl.Key(2*1023, 80_000)
	tbl.Key(0, 80_000+263)
	if c.blocks != 8+3*words {
		t.Fatalf("stale then fresh read: %d blocks, want %d", c.blocks, 8+3*words)
	}
}

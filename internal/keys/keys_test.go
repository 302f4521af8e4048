package keys

import (
	"testing"

	"hybp/internal/cipher"
)

func testConfig() Config {
	cfg := DefaultConfig(42)
	return cfg
}

func TestRefreshLatencyMatchesPaper(t *testing.T) {
	// Paper Section V-C1: a 1K-entry table of 10-bit keys organized as
	// 256 40-bit words refreshes in 7 + 256 = 263 cycles.
	tbl := NewTable(testConfig())
	if got := tbl.RefreshLatency(); got != 263 {
		t.Fatalf("refresh latency = %d cycles, want 263", got)
	}
}

func TestStorageMatchesPaper(t *testing.T) {
	// 1K × 10 bits = 1.25 KB per table; 4 tables (SMT-2 × 2 privileges)
	// = 5 KB (paper Section VII-D).
	tbl := NewTable(testConfig())
	if kb := float64(tbl.StorageBits()) / 8 / 1024; kb != 1.25 {
		t.Fatalf("table storage = %v KB, want 1.25", kb)
	}
	m := NewManager(testConfig())
	if kb := float64(m.StorageBits(2)) / 8 / 1024; kb != 5.0 {
		t.Fatalf("SMT-2 keys storage = %v KB, want 5", kb)
	}
}

func TestKeysChangeOnRefresh(t *testing.T) {
	tbl := NewTable(testConfig())
	before := make([]uint64, 0, 64)
	for pc := uint64(0); pc < 128; pc += 2 {
		before = append(before, tbl.Key(pc, 0))
	}
	tbl.Refresh(1000)
	after := uint64(1000 + 263)
	changed := 0
	for i, pc := 0, uint64(0); pc < 128; i, pc = i+1, pc+2 {
		if tbl.Key(pc, after) != before[i] {
			changed++
		}
	}
	// 10-bit keys collide by chance 1/1024 per entry; essentially all
	// must change.
	if changed < 60 {
		t.Fatalf("only %d/64 keys changed on refresh", changed)
	}
}

func TestStaleWindowProgression(t *testing.T) {
	tbl := NewTable(testConfig())
	oldKey0 := tbl.Key(0, 0)         // entry 0
	oldKeyLast := tbl.Key(2*1023, 0) // entry 1023 (pc>>1 masked)
	tbl.Refresh(100)

	// During the pipeline fill nothing is fresh.
	if !tbl.KeyStale(0, 100) || !tbl.KeyStale(2*1023, 100) {
		t.Fatal("entries fresh during pipeline fill")
	}
	if tbl.Key(0, 100) != oldKey0 {
		t.Fatal("stale read did not return old key")
	}

	// Entry 0 lives in word 0: fresh at 100+7+1.
	if tbl.KeyStale(0, 108) {
		t.Fatal("entry 0 still stale after its word was written")
	}
	// Entry 1023 lives in the last word: fresh only at the end.
	if !tbl.KeyStale(2*1023, 108) {
		t.Fatal("last entry fresh too early")
	}
	if tbl.Key(2*1023, 108) != oldKeyLast {
		t.Fatal("stale read of last entry did not return old key")
	}
	if tbl.KeyStale(2*1023, 100+263) {
		t.Fatal("last entry stale after refresh completes")
	}
	if tbl.RefreshInFlight(100+262) != true || tbl.RefreshInFlight(100+263) != false {
		t.Fatal("RefreshInFlight window wrong")
	}
}

func TestContentKeyUpdatesImmediately(t *testing.T) {
	tbl := NewTable(testConfig())
	before := tbl.ContentKey()
	tbl.Refresh(50)
	if tbl.ContentKey() == before {
		t.Fatal("content key unchanged by refresh")
	}
}

func TestAccessThresholdTrigger(t *testing.T) {
	cfg := testConfig()
	cfg.AccessThreshold = 100
	tbl := NewTable(cfg)
	for i := 0; i < 99; i++ {
		if tbl.NoteAccess() {
			t.Fatalf("threshold fired early at access %d", i+1)
		}
	}
	if !tbl.NoteAccess() {
		t.Fatal("threshold did not fire at 100 accesses")
	}
	tbl.Refresh(0)
	if tbl.Accesses() != 0 {
		t.Fatal("refresh did not reset access counter")
	}
}

func TestThresholdDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.AccessThreshold = 0
	tbl := NewTable(cfg)
	for i := 0; i < 1000; i++ {
		if tbl.NoteAccess() {
			t.Fatal("disabled threshold fired")
		}
	}
}

func TestKeyDistributionUniform(t *testing.T) {
	// Requirement 1 of Section III-A: key material must be uniform over
	// the output space. Count bucket occupancy over all entries of many
	// epochs.
	cfg := testConfig()
	tbl := NewTable(cfg)
	const buckets = 16
	counts := make([]int, buckets)
	total := 0
	for epoch := 0; epoch < 40; epoch++ {
		tbl.Refresh(uint64(epoch) * 1000000)
		for i := 0; i < cfg.Entries; i++ {
			k := tbl.Key(uint64(i*2), tbl.refreshEnd)
			counts[k%buckets]++
			total++
		}
	}
	want := float64(total) / buckets
	for b, c := range counts {
		if d := float64(c) - want; d > want/10 || d < -want/10 {
			t.Errorf("bucket %d: %d keys, want ≈%.0f", b, c, want)
		}
	}
}

func TestBindSeparatesASIDs(t *testing.T) {
	// Two software contexts (ASIDs) refreshed at the same point must get
	// unrelated key streams: the index seed mixes ASID/VMID (Figure 4).
	a := NewTable(testConfig())
	b := NewTable(testConfig())
	a.Bind(1, 0)
	b.Bind(2, 0)
	a.Refresh(0)
	b.Refresh(0)
	same := 0
	const probes = 256
	for pc := uint64(0); pc < probes*2; pc += 2 {
		if a.Key(pc, 300) == b.Key(pc, 300) {
			same++
		}
	}
	// 10-bit keys collide 1/1024 by chance; allow a little slack.
	if same > 4 {
		t.Fatalf("%d/%d keys identical across ASIDs", same, probes)
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs diverged: %d vs %d", a.Epoch(), b.Epoch())
	}
}

func TestManagerContextTables(t *testing.T) {
	m := NewManager(testConfig())
	a := m.Table(ContextID{Thread: 0, Priv: User})
	b := m.Table(ContextID{Thread: 0, Priv: Kernel})
	c := m.Table(ContextID{Thread: 1, Priv: User})
	if a == b || a == c || b == c {
		t.Fatal("contexts share a keys table")
	}
	if m.Table(ContextID{Thread: 0, Priv: User}) != a {
		t.Fatal("table lookup not stable")
	}
	// Different contexts must hold different key material.
	same := 0
	for pc := uint64(0); pc < 256; pc += 2 {
		if a.Key(pc, 0) == c.Key(pc, 0) {
			same++
		}
	}
	// 10-bit keys collide 1/1024 by chance; 128 draws ⇒ expect ≈0.
	if same > 5 {
		t.Fatalf("%d/128 keys identical across threads", same)
	}
}

func TestOnContextSwitchRefreshesBothPrivileges(t *testing.T) {
	m := NewManager(testConfig())
	u := m.Table(ContextID{Thread: 0, Priv: User})
	k := m.Table(ContextID{Thread: 0, Priv: Kernel})
	ru, rk := u.Refreshes(), k.Refreshes()
	m.OnContextSwitch(0, 7, 0, 500)
	if u.Refreshes() != ru+1 || k.Refreshes() != rk+1 {
		t.Fatal("context switch did not refresh both privilege tables")
	}
	if !u.RefreshInFlight(501) {
		t.Fatal("refresh not in flight after context switch")
	}
}

func TestManagerNoteAccessThreshold(t *testing.T) {
	cfg := testConfig()
	cfg.AccessThreshold = 10
	m := NewManager(cfg)
	id := ContextID{Thread: 0, Priv: User}
	fired := 0
	for i := 0; i < 35; i++ {
		if m.NoteAccess(id, uint64(i)) {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("threshold fired %d times over 35 accesses with threshold 10, want 3", fired)
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Entries: 0, KeyBits: 10, Cipher: cipher.NewXOR(1)},
		{Entries: 100, KeyBits: 10, Cipher: cipher.NewXOR(1)},
		{Entries: 64, KeyBits: 0, Cipher: cipher.NewXOR(1)},
		{Entries: 64, KeyBits: 65, Cipher: cipher.NewXOR(1)},
		{Entries: 64, KeyBits: 10, Cipher: nil},
	}
	for i, cfg := range bad {
		cfg := cfg
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d did not panic", i)
				}
			}()
			NewTable(cfg)
		}()
	}
}

func TestPrivilegeString(t *testing.T) {
	if User.String() != "user" || Kernel.String() != "kernel" {
		t.Fatal("Privilege.String broken")
	}
}

func BenchmarkKeyLookup(b *testing.B) {
	tbl := NewTable(testConfig())
	for i := 0; i < b.N; i++ {
		_ = tbl.Key(uint64(i)<<1, 0)
	}
}

// BenchmarkRefresh times a refresh together with the first read after its
// window, which computes the new code book: the fill moved from Refresh to
// that read, and the benchmark charges both.
func BenchmarkRefresh(b *testing.B) {
	tbl := NewTable(testConfig())
	done := uint64(tbl.RefreshLatency())
	for i := 0; i < b.N; i++ {
		now := uint64(i) * 1000
		tbl.Refresh(now)
		tbl.Key(0, now+done)
	}
}

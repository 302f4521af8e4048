package secure

import (
	"testing"

	"hybp/internal/keys"
	"hybp/internal/rng"
)

func testCfg(threads int, seed uint64) Config {
	return Config{Threads: threads, Seed: seed}
}

func allMechanisms(threads int, seed uint64) []BPU {
	cfg := testCfg(threads, seed)
	return []BPU{
		NewBaseline(cfg),
		NewFlush(cfg),
		NewPartition(cfg),
		NewReplication(cfg, 1.0),
		NewHyBP(cfg),
	}
}

// feed runs n accesses of a repeating branch working set through the BPU
// and returns (dirCorrect, btbHits) over the final half.
func feed(b BPU, ctx Context, branches int, n int, seed uint64) (dirAcc, btbHit float64) {
	r := rng.New(seed)
	type br struct {
		pc, target uint64
		bias       float64
	}
	set := make([]br, branches)
	for i := range set {
		set[i] = br{
			pc:     uint64(0x10000 + i*8),
			target: uint64(0x90000 + i*16),
			bias:   0.9,
		}
	}
	dirOK, btbOK, measured := 0, 0, 0
	for i := 0; i < n; i++ {
		s := set[i%branches]
		taken := r.Bool(s.bias)
		res := b.Access(ctx, Branch{PC: s.pc, Target: s.target, Taken: taken, Kind: Cond}, uint64(i))
		if i >= n/2 {
			measured++
			if res.DirCorrect {
				dirOK++
			}
			if !taken || res.BTBHit {
				btbOK++
			}
		}
	}
	return float64(dirOK) / float64(measured), float64(btbOK) / float64(measured)
}

func TestAllMechanismsLearn(t *testing.T) {
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	for _, m := range allMechanisms(2, 7) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			dir, btbHit := feed(m, ctx, 64, 20000, 11)
			if dir < 0.85 {
				t.Errorf("direction accuracy = %.3f", dir)
			}
			if btbHit < 0.9 {
				t.Errorf("btb service rate = %.3f", btbHit)
			}
		})
	}
}

func TestStorageOverheads(t *testing.T) {
	cfg := testCfg(2, 3)
	base := NewBaseline(cfg)
	if got := OverheadPercent(base); got != 0 {
		t.Errorf("baseline overhead = %v%%", got)
	}
	if got := OverheadPercent(NewFlush(cfg)); got != 0 {
		t.Errorf("flush overhead = %v%%, want 0 (Table I)", got)
	}
	// Partition keeps total storage ≈ baseline (0% in Table I).
	if got := OverheadPercent(NewPartition(cfg)); got < -10 || got > 10 {
		t.Errorf("partition overhead = %.1f%%, want ≈0", got)
	}
	// Replication at 100% ≈ doubles storage.
	if got := OverheadPercent(NewReplication(cfg, 1.0)); got < 80 || got > 120 {
		t.Errorf("replication overhead = %.1f%%, want ≈100", got)
	}
}

func TestHyBPCostMatchesPaper(t *testing.T) {
	h := NewHyBP(testCfg(2, 5))
	rep := Cost(h)
	// Paper Section VII-D: replicated upper tables ≈16.3 KB, keys tables
	// 5 KB, cipher ≈1.4 KB, total ≈22.7 KB ≈ 21.1% of the BPU.
	if rep.KeysTablesKB != 5.0 {
		t.Errorf("keys tables = %v KB, want 5", rep.KeysTablesKB)
	}
	if rep.ReplicatedKB < 14 || rep.ReplicatedKB > 19 {
		t.Errorf("replicated upper tables = %.1f KB, want ≈16.3", rep.ReplicatedKB)
	}
	if rep.TotalKB < 20 || rep.TotalKB > 26 {
		t.Errorf("total = %.1f KB, want ≈22.7", rep.TotalKB)
	}
	if rep.OverheadPercent < 17 || rep.OverheadPercent > 26 {
		t.Errorf("overhead = %.1f%%, want ≈21.1", rep.OverheadPercent)
	}
}

func TestBaselineRetainsStateAcrossSwitch(t *testing.T) {
	// The baseline's residual-state benefit: after a context switch and
	// back, previously trained branches still hit.
	b := NewBaseline(testCfg(1, 9))
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	br := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}
	b.Access(ctx, br, 0)
	b.OnContextSwitch(0, 2, 100)
	b.OnContextSwitch(0, 1, 200)
	res := b.Access(ctx, br, 300)
	if !res.BTBHit {
		t.Fatal("baseline lost BTB state across context switches")
	}
}

func TestFlushClearsStateOnSwitchAndPrivilege(t *testing.T) {
	f := NewFlush(testCfg(1, 9))
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	br := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}

	f.Access(ctx, br, 0)
	f.OnContextSwitch(0, 2, 100)
	if res := f.Access(ctx, br, 200); res.BTBHit {
		t.Fatal("flush mechanism retained BTB state across context switch")
	}
	if f.ContextFlushes != 1 {
		t.Fatalf("context flushes = %d", f.ContextFlushes)
	}

	f.Access(ctx, br, 300) // retrain
	f.OnPrivilegeChange(0, keys.User, keys.Kernel, 400)
	if res := f.Access(ctx, br, 500); res.BTBHit {
		t.Fatal("flush mechanism retained BTB state across privilege change")
	}
	if f.PrivilegeFlushes != 1 {
		t.Fatalf("privilege flushes = %d", f.PrivilegeFlushes)
	}
}

func TestFlushDecompositionSwitches(t *testing.T) {
	f := NewFlush(testCfg(1, 9))
	f.FlushOnPrivilege = false
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	br := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}
	f.Access(ctx, br, 0)
	f.OnPrivilegeChange(0, keys.User, keys.Kernel, 10)
	if res := f.Access(ctx, br, 20); !res.BTBHit {
		t.Fatal("privilege flush fired while disabled")
	}
}

func TestPartitionIsolatesContexts(t *testing.T) {
	// A branch trained by one (thread, priv) context must not be visible
	// to any other — physical isolation.
	p := NewPartition(testCfg(2, 13))
	br := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}
	trainer := Context{Thread: 0, Priv: keys.User, ASID: 1}
	p.Access(trainer, br, 0)
	p.Access(trainer, br, 1) // second access hits
	if res := p.Access(trainer, br, 2); !res.BTBHit {
		t.Fatal("trainer does not hit its own entry")
	}
	others := []Context{
		{Thread: 0, Priv: keys.Kernel, ASID: 1},
		{Thread: 1, Priv: keys.User, ASID: 2},
		{Thread: 1, Priv: keys.Kernel, ASID: 2},
	}
	for _, o := range others {
		// Probe with a taken branch whose target differs: if the other
		// context saw the trainer's entry, BTBHit would require target
		// equality, so instead check the miss path directly by using
		// the same branch: a fresh partition must miss on first access.
		pp := NewPartition(testCfg(2, 13))
		pp.Access(trainer, br, 0)
		if res := pp.Access(o, br, 1); res.BTBHit {
			t.Fatalf("context %+v sees trainer's BTB entry", o)
		}
	}
}

func TestPartitionFlushOnContextSwitchOnlyOwnThread(t *testing.T) {
	p := NewPartition(testCfg(2, 17))
	t0 := Context{Thread: 0, Priv: keys.User, ASID: 1}
	t1 := Context{Thread: 1, Priv: keys.User, ASID: 2}
	br0 := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}
	br1 := Branch{PC: 0x6000, Target: 0xA000, Taken: true, Kind: Jump}
	p.Access(t0, br0, 0)
	p.Access(t1, br1, 1)
	p.OnContextSwitch(0, 9, 100)
	if res := p.Access(t0, br0, 200); res.BTBHit {
		t.Fatal("thread 0 partition survived its context switch")
	}
	if res := p.Access(t1, br1, 201); !res.BTBHit {
		t.Fatal("thread 1 partition was flushed by thread 0's switch")
	}
}

func TestReplicationScalesCapacity(t *testing.T) {
	// More storage ⇒ fewer conflict misses on a large working set.
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	_, hitSmall := feed(NewReplication(testCfg(2, 21), 0), ctx, 3000, 60000, 5)
	_, hitBig := feed(NewReplication(testCfg(2, 21), 3.0), ctx, 3000, 60000, 5)
	if hitBig <= hitSmall {
		t.Fatalf("btb service: overhead 300%% (%.3f) not better than 0%% (%.3f)", hitBig, hitSmall)
	}
}

func TestHyBPIsolatesAcrossContexts(t *testing.T) {
	h := NewHyBP(testCfg(2, 23))
	br := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}
	trainer := Context{Thread: 0, Priv: keys.User, ASID: 1}
	spy := Context{Thread: 1, Priv: keys.User, ASID: 2}
	h.Access(trainer, br, 0)
	if res := h.Access(trainer, br, 1); !res.BTBHit {
		t.Fatal("trainer does not hit its own entry")
	}
	if res := h.Access(spy, br, 2); res.BTBHit {
		t.Fatal("spy context decoded trainer's BTB entry (keys not separating)")
	}
}

func TestHyBPKeyChangeOnContextSwitch(t *testing.T) {
	h := NewHyBP(testCfg(1, 29))
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	// Train a branch deep enough to reach the shared L2: insert many
	// conflicting branches to force demotion, then verify the original is
	// still serviced (from L2), then context switch and verify it is not.
	br := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}
	h.Access(ctx, br, 0)
	for i := 0; i < 600; i++ {
		h.Access(ctx, Branch{PC: uint64(0x10000 + i*8), Target: 0x9000, Taken: true, Kind: Jump}, uint64(i+1))
	}
	res := h.Access(ctx, br, 1000)
	if !res.BTBHit {
		t.Skip("original branch fully evicted; random replacement unlucky")
	}
	h.OnContextSwitch(0, 2, 2000)
	// Well after the refresh window completes:
	if res := h.Access(ctx, br, 2000+100000); res.BTBHit {
		t.Fatal("entry still reachable after key change at context switch")
	}
}

func TestHyBPContextSwitchKeepsSharedL2(t *testing.T) {
	// A context switch flushes the switching thread's private L0/L1 but
	// leaves the shared last level in place: its entries survive, made
	// unreachable by the new keys rather than by a flush.
	h := NewHyBP(testCfg(2, 30))
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	other := Context{Thread: 1, Priv: keys.User, ASID: 2}
	for i := 0; i < 2000; i++ {
		pc := uint64(0x10000 + i*8)
		h.Access(ctx, Branch{PC: pc, Target: pc + 0x100, Taken: true, Kind: Jump}, uint64(i))
		h.Access(other, Branch{PC: pc, Target: pc + 0x200, Taken: true, Kind: Jump}, uint64(i))
	}
	own, peer := h.HierarchyFor(ctx), h.HierarchyFor(other)
	l2 := h.SharedL2().ValidCount()
	peerUpper := peer.Level(0).ValidCount() + peer.Level(1).ValidCount()
	if l2 == 0 || own.Level(0).ValidCount() == 0 || own.Level(1).ValidCount() == 0 || peerUpper == 0 {
		t.Fatal("setup: working set did not fill every level")
	}
	h.OnContextSwitch(0, 3, 5000)
	if n := own.Level(0).ValidCount() + own.Level(1).ValidCount(); n != 0 {
		t.Fatalf("%d entries left in the switching thread's L0/L1", n)
	}
	if n := peer.Level(0).ValidCount() + peer.Level(1).ValidCount(); n != peerUpper {
		t.Fatalf("other thread's L0/L1 hold %d entries after the switch, want %d", n, peerUpper)
	}
	if n := h.SharedL2().ValidCount(); n != l2 {
		t.Fatalf("shared L2 holds %d entries after the switch, want %d", n, l2)
	}
}

func TestHyBPPrivilegeChangePreservesState(t *testing.T) {
	// HyBP's key advantage over Flush: privilege round trips cost nothing
	// because each privilege level owns separate keys and tables.
	h := NewHyBP(testCfg(1, 31))
	user := Context{Thread: 0, Priv: keys.User, ASID: 1}
	kern := Context{Thread: 0, Priv: keys.Kernel, ASID: 1}
	brU := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}
	brK := Branch{PC: 0x5000, Target: 0x9000, Taken: true, Kind: Jump}
	h.Access(user, brU, 0)
	h.OnPrivilegeChange(0, keys.User, keys.Kernel, 10)
	h.Access(kern, brK, 20)
	h.OnPrivilegeChange(0, keys.Kernel, keys.User, 30)
	if res := h.Access(user, brU, 40); !res.BTBHit {
		t.Fatal("user state lost across privilege round trip")
	}
	h.OnPrivilegeChange(0, keys.User, keys.Kernel, 50)
	if res := h.Access(kern, brK, 60); !res.BTBHit {
		t.Fatal("kernel state lost across privilege round trip")
	}
}

func TestHyBPUserKernelIsolated(t *testing.T) {
	h := NewHyBP(testCfg(1, 37))
	user := Context{Thread: 0, Priv: keys.User, ASID: 1}
	kern := Context{Thread: 0, Priv: keys.Kernel, ASID: 1}
	br := Branch{PC: 0x4000, Target: 0x8000, Taken: true, Kind: Jump}
	h.Access(user, br, 0)
	if res := h.Access(kern, br, 1); res.BTBHit {
		t.Fatal("kernel context sees user-trained entry")
	}
}

func TestHyBPStaleKeyWindow(t *testing.T) {
	h := NewHyBP(testCfg(1, 41))
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	h.OnContextSwitch(0, 5, 1000)
	// Within the refresh window, accesses read stale keys.
	res := h.Access(ctx, Branch{PC: 0x7000 + 2*2046, Target: 1, Taken: true, Kind: Jump}, 1002)
	if !res.StaleKey {
		t.Fatal("access during refill window not marked stale")
	}
	res = h.Access(ctx, Branch{PC: 0x7000, Target: 1, Taken: true, Kind: Jump}, 1000+100000)
	if res.StaleKey {
		t.Fatal("access long after refill still marked stale")
	}
	if h.StaleKeyAccesses == 0 {
		t.Fatal("stale accesses not counted")
	}
}

func TestHyBPAccessThresholdRefreshes(t *testing.T) {
	cfg := testCfg(1, 43)
	cfg.Keys = keys.DefaultConfig(43)
	cfg.Keys.AccessThreshold = 50
	h := NewHyBP(cfg)
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	before := h.KeysManager().TotalRefreshes()
	for i := 0; i < 200; i++ {
		h.Access(ctx, Branch{PC: 0x100, Target: 0x200, Taken: true, Kind: Jump}, uint64(i))
	}
	if h.KeysManager().TotalRefreshes() < before+3 {
		t.Fatalf("refreshes = %d → %d, want ≥3 threshold refreshes over 200 accesses",
			before, h.KeysManager().TotalRefreshes())
	}
}

func TestHyBPFilteringReducesSharedFlow(t *testing.T) {
	// Section V-B: the physically isolated L0/L1 filter most accesses
	// away from the shared L2 for a hot working set.
	h := NewHyBP(testCfg(1, 47))
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	// Working set that fits L0+L1 comfortably.
	for i := 0; i < 20000; i++ {
		pc := uint64(0x1000 + (i%32)*8)
		h.Access(ctx, Branch{PC: pc, Target: pc + 0x100, Taken: true, Kind: Jump}, uint64(i))
	}
	hier := h.HierarchyFor(ctx)
	if rate := hier.LastLevelProbeRate(); rate > 0.2 {
		t.Fatalf("last-level probe rate = %.3f for hot set, want small (filtering)", rate)
	}
}

func TestMechanismNames(t *testing.T) {
	want := map[string]bool{
		"baseline": true, "flush": true, "partition": true,
		"replication+100%": true, "hybp": true,
	}
	for _, m := range allMechanisms(1, 3) {
		if !want[m.Name()] {
			t.Errorf("unexpected mechanism name %q", m.Name())
		}
	}
	if n := NewTournament(Config{Threads: 1, Seed: 1}).Name(); n != "baseline-tournament" {
		t.Errorf("tournament baseline name = %q", n)
	}
}

func TestTournamentBaselineWorks(t *testing.T) {
	b := NewTournament(Config{Threads: 1, Seed: 1})
	ctx := Context{Thread: 0, Priv: keys.User, ASID: 1}
	correct := 0
	for i := 0; i < 2000; i++ {
		res := b.Access(ctx, Branch{PC: 0x300, Taken: true, Kind: Cond}, uint64(i))
		if i > 100 && res.DirCorrect {
			correct++
		}
	}
	if correct < 1800 {
		t.Fatalf("tournament baseline accuracy too low: %d/1900", correct)
	}
}

func TestReplicationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative overhead did not panic")
		}
	}()
	NewReplication(testCfg(1, 1), -0.5)
}

package secure

import (
	"testing"

	"hybp/internal/keys"
	"hybp/internal/rng"
)

// benchEvent is a synthetic branch event. The stream is built in-package
// (workload imports secure, so the real generator can't be used here) but
// shaped like the simulator's: a PC working set of mixed kinds with biased
// outcomes and occasional privilege flips.
type benchEvent struct {
	br   Branch
	priv keys.Privilege
}

func benchEvents(n int) []benchEvent {
	r := rng.New(7)
	evs := make([]benchEvent, n)
	for i := range evs {
		pc := 0x4000_0000 + uint64(i%700)*64
		var kind BranchKind
		switch v := r.Uint64() % 100; {
		case v < 70:
			kind = Cond
		case v < 80:
			kind = Jump
		case v < 88:
			kind = Call
		case v < 96:
			kind = Return
		default:
			kind = Indirect
		}
		evs[i] = benchEvent{
			br: Branch{
				PC:     pc,
				Target: pc + 0x400 + uint64(kind)*8,
				Taken:  r.Uint64()%100 < 62,
				Kind:   kind,
			},
			priv: keys.Privilege(boolToU8(r.Uint64()%50 == 0)),
		}
	}
	return evs
}

func boolToU8(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func benchMechanism(b *testing.B, bpu BPU) {
	b.Helper()
	evs := benchEvents(8192)
	ctx := Context{Thread: 0, ASID: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := &evs[i&8191]
		ctx.Priv = ev.priv
		bpu.Access(ctx, ev.br, uint64(i))
	}
}

// BenchmarkHyBPAccess times the full hybrid path: keyed L2 BTB, transformed
// TAGE tables, private upper levels — the per-access cost of the paper's
// mechanism.
func BenchmarkHyBPAccess(b *testing.B) {
	benchMechanism(b, NewHyBP(Config{Threads: 1, Seed: 7}))
}

// BenchmarkBaselineAccess is the unprotected yardstick.
func BenchmarkBaselineAccess(b *testing.B) {
	benchMechanism(b, NewBaseline(Config{Threads: 1, Seed: 7}))
}

// BenchmarkPartitionAccess covers the scaled-partition path.
func BenchmarkPartitionAccess(b *testing.B) {
	benchMechanism(b, NewPartition(Config{Threads: 1, Seed: 7}))
}

// benchSwitch times a context switch together with the work it leaves to
// the next accesses: the switch on thread 0, then the user context's first
// conditional taken branch (TAGE and BTB both read) one cycle later,
// inside HyBP's refresh window, and again once the window has closed. So
// a cost that moves out of OnContextSwitch into the first accesses — HyBP
// computing its new code book on first read — is still charged here.
func benchSwitch(b *testing.B, bpu BPU, windowEnd uint64) {
	b.Helper()
	ctx := Context{Thread: 0, ASID: 10}
	br := Branch{PC: 0x4000_1000, Target: 0x4000_2000, Taken: true, Kind: Cond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := uint64(i) * 4_000_000
		bpu.OnContextSwitch(0, uint16(10+i%2), now)
		bpu.Access(ctx, br, now+1)
		bpu.Access(ctx, br, now+windowEnd)
	}
}

// BenchmarkHyBPContextSwitch times HyBP's per-timeslice overhead: key
// refresh of both privilege tables and the private flushes, plus the
// first accesses that read the new keys (benchSwitch).
func BenchmarkHyBPContextSwitch(b *testing.B) {
	h := NewHyBP(Config{Threads: 1, Seed: 7})
	benchSwitch(b, h, uint64(h.KeysManager().Table(keys.ContextID{}).RefreshLatency()))
}

// BenchmarkFlushContextSwitch times Flush's switch — every table cleared —
// plus the same first accesses, for comparison with HyBP's.
func BenchmarkFlushContextSwitch(b *testing.B) {
	benchSwitch(b, NewFlush(Config{Threads: 1, Seed: 7}), 263)
}

// TestHyBPAccessZeroAllocs pins the full secure-BPU access path
// allocation-free in steady state.
func TestHyBPAccessZeroAllocs(t *testing.T) {
	h := NewHyBP(Config{Threads: 1, Seed: 7})
	evs := benchEvents(8192)
	ctx := Context{Thread: 0, ASID: 10}
	for i := range evs {
		ctx.Priv = evs[i].priv
		h.Access(ctx, evs[i].br, uint64(i))
	}
	i := 0
	avg := testing.AllocsPerRun(8192, func() {
		ev := &evs[i&8191]
		i++
		ctx.Priv = ev.priv
		h.Access(ctx, ev.br, uint64(i))
	})
	if avg != 0 {
		t.Fatalf("HyBP.Access allocates %.2f objects/op, want 0", avg)
	}
}

// TestSwitchZeroAllocs pins the steady-state context-switch path (refresh +
// flush, no new contexts) allocation-free for the switch-heavy mechanisms.
func TestSwitchZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		bpu  BPU
	}{
		{"hybp", NewHyBP(Config{Threads: 1, Seed: 7})},
		{"flush", NewFlush(Config{Threads: 1, Seed: 7})},
	} {
		// Visit both ASIDs once so steady state holds every context.
		tc.bpu.OnContextSwitch(0, 10, 100)
		tc.bpu.OnContextSwitch(0, 11, 200)
		i := uint64(1)
		avg := testing.AllocsPerRun(512, func() {
			tc.bpu.OnContextSwitch(0, uint16(10+i%2), i*4_000_000)
			i++
		})
		if avg != 0 {
			t.Errorf("%s.OnContextSwitch allocates %.2f objects/op, want 0", tc.name, avg)
		}
	}
}

package secure

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"hybp/internal/rng"
)

// driveStream runs one fixed stream of 40 000 accesses, with rare context
// switches and privilege flips, over cfg.Threads hardware threads through
// every BPU in bpus, and calls check with each access's Results (one per
// BPU, in order). It returns the number of switches and flips it fired.
func driveStream(cfg Config, bpus []BPU, check func(i int, ctx Context, br Branch, res []Result)) (switches, flips int) {
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	evs := benchEvents(8192)
	r := rng.New(cfg.Seed)
	ctxs := [2]Context{{Thread: 0, ASID: 10}, {Thread: 1, ASID: 20}}
	res := make([]Result, len(bpus))
	for i := 0; i < 40_000; i++ {
		th := uint8(r.Intn(threads))
		ctx := &ctxs[th]
		now := uint64(i)
		switch v := r.Uint64() % 1000; {
		case v < 3:
			ctx.ASID ^= 1
			for _, b := range bpus {
				b.OnContextSwitch(th, ctx.ASID, now)
			}
			switches++
		case v < 15:
			from := ctx.Priv
			ctx.Priv ^= 1
			for _, b := range bpus {
				b.OnPrivilegeChange(th, from, ctx.Priv, now)
			}
			flips++
		}
		br := evs[i%len(evs)].br
		for j, b := range bpus {
			res[j] = b.Access(*ctx, br, now)
		}
		check(i, *ctx, br, res)
	}
	return switches, flips
}

// TestFlushWithoutFlushingMatchesBaseline pins a relation that holds by
// construction: the baseline is Flush with both flush triggers off. Both
// build newPredictorSet(cfg.geometryFor(), cfg.Seed), both access it with
// no content key, and both reset only the switching thread's history on a
// context switch. So over one stream of accesses, context switches and
// privilege flips on two threads, every Result must match, on the full and
// on a scaled-down geometry.
func TestFlushWithoutFlushingMatchesBaseline(t *testing.T) {
	for _, cfg := range []Config{
		{Threads: 2, Seed: 7},
		{Threads: 2, Seed: 11, Scale: 1.0 / 16},
	} {
		fl := NewFlush(cfg)
		fl.FlushOnPrivilege, fl.FlushOnContext = false, false
		switches, flips := driveStream(cfg, []BPU{fl, NewBaseline(cfg)}, func(i int, ctx Context, br Branch, res []Result) {
			if res[0] != res[1] {
				t.Fatalf("scale %v, access %d (%+v on %+v): Flush %+v, Baseline %+v",
					cfg.Scale, i, br, ctx, res[0], res[1])
			}
		})
		if switches == 0 || flips == 0 || fl.ContextFlushes+fl.PrivilegeFlushes != 0 {
			t.Fatalf("stream had %d switches, %d flips and %d flushes; want switches and flips, no flushes",
				switches, flips, fl.ContextFlushes+fl.PrivilegeFlushes)
		}
	}
}

// TestPartitionMatchesReplicationAtZero pins Figure 8's 0% point: Partition
// is Replication with no extra storage. Both split the baseline geometry
// scaled by 1/(2·Threads) into one predictor set per (thread, privilege)
// context seeded Seed^id<<32, keep one history and stack per context, and
// flush the switching thread's two sets on a context switch. So every
// Result must match, for one and two threads, on the full and on a
// scaled-down geometry; only the names differ.
func TestPartitionMatchesReplicationAtZero(t *testing.T) {
	for _, cfg := range []Config{
		{Threads: 1, Seed: 7},
		{Threads: 2, Seed: 7},
		{Threads: 1, Seed: 11, Scale: 1.0 / 16},
		{Threads: 2, Seed: 11, Scale: 1.0 / 16},
	} {
		p, r := NewPartition(cfg), NewReplication(cfg, 0)
		switches, flips := driveStream(cfg, []BPU{p, r}, func(i int, ctx Context, br Branch, res []Result) {
			if res[0] != res[1] {
				t.Fatalf("%d threads, scale %v, access %d (%+v on %+v): Partition %+v, Replication+0%% %+v",
					cfg.Threads, cfg.Scale, i, br, ctx, res[0], res[1])
			}
		})
		if switches == 0 || flips == 0 {
			t.Fatalf("stream had %d switches and %d flips; want both", switches, flips)
		}
		if p.StorageBits() != r.StorageBits() || p.BaselineBits() != r.BaselineBits() {
			t.Fatalf("%d threads, scale %v: storage %d/%d bits vs %d/%d", cfg.Threads, cfg.Scale,
				p.StorageBits(), p.BaselineBits(), r.StorageBits(), r.BaselineBits())
		}
		if p.Name() != "partition" || r.Name() != "replication+0%" {
			t.Fatalf("names %q and %q", p.Name(), r.Name())
		}
	}
}

// resultDigest is the FNV-1a digest of b's Result sequence over
// driveStream at cfg: each Result's flags, predicted target, level and
// latency as four little-endian words.
func resultDigest(cfg Config, b BPU) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	driveStream(cfg, []BPU{b}, func(_ int, _ Context, _ Branch, res []Result) {
		r := res[0]
		flags := uint64(0)
		for bit, on := range []bool{r.DirPred, r.DirCorrect, r.BTBHit, r.RawHit, r.StaleKey} {
			if on {
				flags |= 1 << bit
			}
		}
		binary.LittleEndian.PutUint64(buf[0:], flags)
		binary.LittleEndian.PutUint64(buf[8:], r.PredictedTarget)
		binary.LittleEndian.PutUint64(buf[16:], uint64(int64(r.BTBLevel)))
		binary.LittleEndian.PutUint64(buf[24:], uint64(r.BTBLatency))
		h.Write(buf[:])
	})
	return h.Sum64()
}

// tournamentDigest is the FNV-1a digest of the tournament baseline's
// Result sequence over driveStream at {Threads: 2, Seed: 2022}, recorded
// when the tournament predictor still lived inside the baseline type. It
// pins the Section VII-F yardstick's behaviour: returns through the BTB,
// no return address stack, and a BTB insert on a miss or a wrong stored
// target.
const tournamentDigest = 0x181133633dfc2162

// TestTournamentDigest checks NewTournament against tournamentDigest.
func TestTournamentDigest(t *testing.T) {
	cfg := Config{Threads: 2, Seed: 2022}
	if got := resultDigest(cfg, NewTournament(cfg)); got != tournamentDigest {
		t.Fatalf("tournament Result digest %#x, want %#x", got, tournamentDigest)
	}
}

// TestMechanismDigests pins every mechanism's Result sequence over
// driveStream on two threads, at full scale and at 1/16. At 1/16 the last
// BTB level has 64 sets while HyBP's code-book keys are 10 bits wide, so
// the table's own index masking is on the path. The digests were recorded
// while each BTB level still mapped PCs through a per-level closure; a
// change of BTB mapping, replacement or flushing that moves any Result
// moves a digest.
func TestMechanismDigests(t *testing.T) {
	build := map[string]func(Config) BPU{
		"baseline":    func(c Config) BPU { return NewBaseline(c) },
		"flush":       func(c Config) BPU { return NewFlush(c) },
		"partition":   func(c Config) BPU { return NewPartition(c) },
		"replication": func(c Config) BPU { return NewReplication(c, 1) },
		"brb":         func(c Config) BPU { return NewBRB(c) },
		"hybp":        func(c Config) BPU { return NewHyBP(c) },
	}
	for _, tc := range []struct {
		mech  string
		scale float64
		want  uint64
	}{
		{"baseline", 1, 0x99b109371a5f8544},
		{"flush", 1, 0x87674a6a0ef20a85},
		{"partition", 1, 0x8241d7c0c65282c1},
		{"replication", 1, 0xa3058b49f9af9d69},
		{"brb", 1, 0x77fcd44b6f6468c5},
		{"hybp", 1, 0x0cdb734b7557c16f},
		{"baseline", 1.0 / 16, 0x7733651870639a25},
		{"flush", 1.0 / 16, 0xc691971f86325372},
		{"partition", 1.0 / 16, 0x39de9827d99b3370},
		{"replication", 1.0 / 16, 0xe6100d8502676b47},
		{"brb", 1.0 / 16, 0x81a34aa1beeea36b},
		{"hybp", 1.0 / 16, 0x5808cacb513f1949},
	} {
		cfg := Config{Threads: 2, Seed: 2022, Scale: tc.scale}
		if got := resultDigest(cfg, build[tc.mech](cfg)); got != tc.want {
			t.Errorf("%s at scale %v: Result digest %#x, want %#x", tc.mech, tc.scale, got, tc.want)
		}
	}
}

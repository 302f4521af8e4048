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
	h := fnv.New64a()
	var buf [32]byte
	driveStream(cfg, []BPU{NewTournament(cfg)}, func(_ int, _ Context, _ Branch, res []Result) {
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
	if got := h.Sum64(); got != tournamentDigest {
		t.Fatalf("tournament Result digest %#x, want %#x", got, tournamentDigest)
	}
}

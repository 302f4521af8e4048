package secure

import (
	"testing"

	"hybp/internal/rng"
)

// TestFlushWithoutFlushingMatchesBaseline pins a relation that holds by
// construction: Flush with both flush triggers off is the baseline. Both
// build newPredictorSet(cfg.geometryFor(), cfg.Seed), both access it with
// no partition offset, and both reset only the switching thread's history
// on a context switch. So over one stream of accesses, context switches
// and privilege flips on two threads, every Result must match, on the
// full and on a scaled-down geometry.
func TestFlushWithoutFlushingMatchesBaseline(t *testing.T) {
	for _, cfg := range []Config{
		{Threads: 2, Seed: 7},
		{Threads: 2, Seed: 11, Scale: 1.0 / 16},
	} {
		base := NewBaseline(cfg)
		fl := NewFlush(cfg)
		fl.FlushOnPrivilege, fl.FlushOnContext = false, false

		evs := benchEvents(8192)
		r := rng.New(cfg.Seed)
		ctxs := [2]Context{{Thread: 0, ASID: 10}, {Thread: 1, ASID: 20}}
		var switches, flips int
		for i := 0; i < 40_000; i++ {
			th := uint8(r.Intn(2))
			ctx := &ctxs[th]
			now := uint64(i)
			switch v := r.Uint64() % 1000; {
			case v < 3:
				ctx.ASID ^= 1
				base.OnContextSwitch(th, ctx.ASID, now)
				fl.OnContextSwitch(th, ctx.ASID, now)
				switches++
			case v < 15:
				from := ctx.Priv
				ctx.Priv ^= 1
				base.OnPrivilegeChange(th, from, ctx.Priv, now)
				fl.OnPrivilegeChange(th, from, ctx.Priv, now)
				flips++
			}
			br := evs[i%len(evs)].br
			if got, want := fl.Access(*ctx, br, now), base.Access(*ctx, br, now); got != want {
				t.Fatalf("scale %v, access %d (%+v on %+v): Flush %+v, Baseline %+v",
					cfg.Scale, i, br, *ctx, got, want)
			}
		}
		if switches == 0 || flips == 0 || fl.ContextFlushes+fl.PrivilegeFlushes != 0 {
			t.Fatalf("stream had %d switches, %d flips and %d flushes; want switches and flips, no flushes",
				switches, flips, fl.ContextFlushes+fl.PrivilegeFlushes)
		}
	}
}

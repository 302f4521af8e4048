package secure

import (
	"hybp/internal/btb"
	"hybp/internal/keys"
	"hybp/internal/tage"
)

// Tournament is the unprotected baseline with the tournament direction
// predictor in place of TAGE-SC-L: the yardstick of the Section VII-F
// comparison. It models the older front end whole: there is no return
// address stack, so returns, like every taken branch, go through the BTB.
type Tournament struct {
	btb  *btb.Hierarchy
	dir  *tage.Tournament
	hist []*tage.TournamentHistory // per hardware thread
}

// NewTournament builds the tournament baseline on cfg's BTB geometry.
func NewTournament(cfg Config) *Tournament {
	cfg = cfg.withDefaults()
	t := &Tournament{
		btb:  newBTBHierarchy(cfg.geometryFor()),
		dir:  tage.NewTournament(tage.DefaultTournamentConfig()),
		hist: make([]*tage.TournamentHistory, cfg.Threads),
	}
	for i := range t.hist {
		t.hist[i] = t.dir.NewHistory()
	}
	return t
}

// Access implements BPU.
func (t *Tournament) Access(ctx Context, br Branch, now uint64) Result {
	res := Result{BTBLevel: -1, DirCorrect: true}
	if br.Kind == Cond {
		res.DirPred = t.dir.Access(br.PC, br.Taken, t.hist[ctx.Thread])
		res.DirCorrect = res.DirPred == br.Taken
	}
	if br.Taken {
		stored, level, hit := t.btb.Lookup(br.PC)
		if hit {
			res.RawHit = true
			res.PredictedTarget = stored
			res.BTBLevel = level
			res.BTBLatency = t.btb.Level(level).Latency()
			res.BTBHit = stored == br.Target
		}
		if !res.BTBHit {
			t.btb.Insert(br.PC, br.Target, ctx.id())
		}
	}
	return res
}

// OnContextSwitch implements BPU; the tournament baseline retains all
// state, its direction history included.
func (t *Tournament) OnContextSwitch(thread uint8, incoming uint16, now uint64) {}

// OnPrivilegeChange implements BPU; it does nothing.
func (t *Tournament) OnPrivilegeChange(thread uint8, from, to keys.Privilege, now uint64) {}

// StorageBits implements BPU.
func (t *Tournament) StorageBits() int { return t.btb.StorageBits() + t.dir.StorageBits() }

// BaselineBits implements BPU.
func (t *Tournament) BaselineBits() int { return t.StorageBits() }

// Name implements BPU.
func (t *Tournament) Name() string { return "baseline-tournament" }

var _ BPU = (*Tournament)(nil)

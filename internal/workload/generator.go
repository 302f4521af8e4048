package workload

import (
	"hybp/internal/keys"
	"hybp/internal/rng"
	"hybp/internal/secure"
)

// Event is one dynamic branch plus its surrounding non-branch instructions.
type Event struct {
	// Gap is the number of non-branch instructions retired before this
	// branch.
	Gap int
	// Branch is the branch record handed to the BPU.
	Branch secure.Branch
	// Priv is the privilege level the branch executes at.
	Priv keys.Privilege
}

// Source produces a branch event stream for one software context. The
// synthetic Generator is the usual implementation; internal/trace supplies
// a replayer for recorded streams.
type Source interface {
	// Next returns the next event of the instruction-driven flow.
	Next() Event
	// TimerBurst returns a kernel interrupt burst of roughly n
	// instructions (cycle-driven, invoked by the pipeline).
	TimerBurst(n int) []Event
	// Profile describes the workload's timing character (base CPI).
	Profile() Profile
}

var _ Source = (*Generator)(nil)

// branchKind classifies a static branch's behavior generator.
type branchKind uint8

const (
	kindLoop branchKind = iota
	kindBiased
	kindPattern
	kindHard
	kindIndirect
)

// staticBranch is one branch site with its behavior state, in 24 bytes: it
// holds only what cannot be recomputed. A direct target lies within 16 bits
// above its PC, a hard branch's bias is the profile's HardBias, and an
// indirect branch's targets are indirectTarget(0..ntargets-1).
type staticBranch struct {
	pc        uint64
	pattern   uint32 // periodic pattern bits
	targetOff uint16 // direct target − pc
	kind      branchKind
	taken     bool // bias direction for biased branches
	period    uint8
	phase     uint8
	ntargets  uint8 // indirect target count
	tsel      uint8 // indirect target selected last
}

// target returns the direct target.
func (sb *staticBranch) target() uint64 { return sb.pc + uint64(sb.targetOff) }

// indirectTarget returns the j-th target of an indirect branch.
func (sb *staticBranch) indirectTarget(j uint8) uint64 {
	return sb.pc + 0x1000 + uint64(j)*0x200
}

// Generator produces a deterministic branch event stream for one profile.
// User-mode execution runs region loops over the profile's static branches;
// syscalls (instruction-driven) and timer interrupts (cycle-driven, invoked
// by the pipeline via TimerBurst) interleave kernel-mode branches from a
// separate kernel branch set.
type Generator struct {
	prof Profile
	rand *rng.Rand

	user   []staticBranch
	kernel []staticBranch

	// Region r is user[r·regionSize : min((r+1)·regionSize, len(user))];
	// its last branch is the loop back-edge.
	regionSize int
	regionTrip []int // stable trip count per region's loop
	hotRegions int   // size of the hot region subset

	curRegion   int
	regionFirst int // index in user of curRegion's first branch
	regionLast  int // index in user of curRegion's last (loop) branch
	cur         int // index in user of the next branch to execute
	tripLeft    int

	// frames holds the return addresses of the open call frames of the
	// current region visit; queue holds already-generated events (call
	// prologues and return epilogues around region transitions). qhead is
	// the consumption cursor: popping by cursor instead of re-slicing keeps
	// the backing array's capacity, so steady-state refills never allocate.
	frames []uint64
	queue  []Event
	qhead  int

	kernelLeft   int // instructions left in the current syscall burst
	nextSyscall  int // instructions until the next syscall
	kernelCursor int

	instructions uint64
	branches     uint64
}

// New builds a generator for prof; distinct seeds give distinct but
// reproducible streams (a software context is (profile, seed)).
func New(prof Profile, seed uint64) *Generator {
	g := &Generator{prof: prof, rand: rng.New(seed ^ 0x60a7)}
	g.user = g.makeBranches(prof.StaticBranches, 0x0000_4000_0000)
	g.kernel = g.makeBranches(max(64, prof.StaticBranches/8), 0xFFFF_8000_0000)
	g.layoutRegions()
	g.scheduleSyscall()
	return g
}

// makeBranches assigns behaviors per the profile's mix.
func (g *Generator) makeBranches(n int, base uint64) []staticBranch {
	p := g.prof
	out := make([]staticBranch, n)
	for i := range out {
		pc := base + uint64(i)*64 + uint64(g.rand.Intn(16))*4
		sb := staticBranch{pc: pc, targetOff: uint16(0x400 + g.rand.Intn(1024)*4)}
		r := g.rand.Float64()
		switch {
		case r < p.IndirectFrac:
			sb.kind = kindIndirect
			sb.ntargets = uint8(2 + g.rand.Intn(3))
		case r < p.IndirectFrac+p.HardFrac:
			sb.kind = kindHard
		case r < p.IndirectFrac+p.HardFrac+p.PatternFrac:
			sb.kind = kindPattern
			// Short periods keep the correlation within the reach of the
			// predictor's history (period × region size history bits).
			sb.period = uint8(2 + g.rand.Intn(5))
			sb.pattern = g.rand.Uint32()
			sb.phase = uint8(g.rand.Intn(int(sb.period)))
		default:
			sb.kind = kindBiased
			sb.taken = g.rand.Bool(0.5)
		}
		out[i] = sb
	}
	return out
}

// layoutRegions groups user branches into loop regions of consecutive
// branches.
func (g *Generator) layoutRegions() {
	g.regionSize = max(g.prof.RegionSize, 2)
	// The last branch of each region acts as its loop back-edge; its trip
	// count is stable (real loops have learnable trips), with a rare ±1
	// wobble applied at run time.
	g.regionTrip = make([]int, (len(g.user)+g.regionSize-1)/g.regionSize)
	for r := range g.regionTrip {
		g.regionTrip[r] = g.drawTrip()
	}
	// Execution is concentrated in a hot subset of regions (real programs
	// spend most time in little code); cold regions are toured at random
	// on the side, keeping capacity pressure on the tables.
	g.hotRegions = min(max(len(g.regionTrip)/16, 2), len(g.regionTrip))
	g.enterRegion(0)
	g.tripLeft = g.nextTrip()
}

// enterRegion makes region r current and starts at its first branch.
func (g *Generator) enterRegion(r int) {
	g.curRegion = r
	g.regionFirst = r * g.regionSize
	g.regionLast = min(g.regionFirst+g.regionSize, len(g.user)) - 1
	g.cur = g.regionFirst
}

// nextRegion picks the next region: mostly hot, occasionally a random cold
// one.
func (g *Generator) nextRegion() int {
	n := len(g.regionTrip)
	if g.rand.Bool(0.85) || n <= g.hotRegions {
		return g.rand.Intn(g.hotRegions)
	}
	return g.hotRegions + g.rand.Intn(n-g.hotRegions)
}

func (g *Generator) drawTrip() int {
	m := g.prof.LoopTripMean
	if m < 2 {
		m = 2
	}
	// Uniform in [m/2, 3m/2] per region, fixed thereafter.
	return m/2 + g.rand.Intn(m+1)
}

// nextTrip returns the current region's trip count with a 3% ±1 wobble.
func (g *Generator) nextTrip() int {
	t := g.regionTrip[g.curRegion]
	if g.rand.Bool(0.03) {
		if g.rand.Bool(0.5) {
			t++
		} else if t > 2 {
			t--
		}
	}
	return t
}

func (g *Generator) scheduleSyscall() {
	if g.prof.SyscallEvery <= 0 {
		g.nextSyscall = -1
		return
	}
	// Exponential-ish spacing via uniform [0.5, 1.5]× the mean.
	e := g.prof.SyscallEvery
	g.nextSyscall = e/2 + g.rand.Intn(e+1)
}

// outcome advances a static branch's behavior state and returns
// (taken, target).
func (g *Generator) outcome(sb *staticBranch) (bool, uint64) {
	switch sb.kind {
	case kindIndirect:
		// Rotate among targets with occasional random jumps.
		if g.rand.Bool(0.2) {
			sb.tsel = uint8(g.rand.Intn(int(sb.ntargets)))
		} else {
			sb.tsel = (sb.tsel + 1) % sb.ntargets
		}
		return true, sb.indirectTarget(sb.tsel)
	case kindHard:
		return g.rand.Bool(g.prof.HardBias), sb.target()
	case kindPattern:
		taken := (sb.pattern>>sb.phase)&1 == 1
		sb.phase++
		if sb.phase >= sb.period {
			sb.phase = 0
		}
		return taken, sb.target()
	default:
		// Strongly biased: 2% noise keeps trainers honest.
		t := sb.taken
		if g.rand.Bool(0.02) {
			t = !t
		}
		return t, sb.target()
	}
}

// kind maps a static branch to its BPU-visible kind.
func (sb *staticBranch) branchKind() secure.BranchKind {
	if sb.kind == kindIndirect {
		return secure.Indirect
	}
	return secure.Cond
}

// callFrac returns the profile's call fraction with its default.
func (g *Generator) callFrac() float64 {
	if g.prof.CallFrac > 0 {
		return g.prof.CallFrac
	}
	return 0.6
}

// emitReturns queues the return epilogue of the current region visit: one
// Return per open frame, innermost first, each targeting its recorded
// return address.
func (g *Generator) emitReturns() {
	exitPC := g.user[g.regionLast].pc + 0x20
	for i := len(g.frames) - 1; i >= 0; i-- {
		g.bookkeep(g.queueEvent(secure.Branch{
			PC:     exitPC + uint64(len(g.frames)-1-i)*8,
			Target: g.frames[i],
			Taken:  true,
			Kind:   secure.Return,
		}))
	}
	g.frames = g.frames[:0]
}

// emitCalls queues the call prologue into the (already selected) next
// region: with probability CallFrac a call enters the region, occasionally
// through a short chain of nested helper calls.
func (g *Generator) emitCalls() {
	if !g.rand.Bool(g.callFrac()) {
		return
	}
	depth := 1
	if g.rand.Bool(0.3) {
		depth += 1 + g.rand.Intn(2)
	}
	entry := g.user[g.regionFirst].pc
	for j := 0; j < depth; j++ {
		callPC := entry - 0x400 + uint64(j)*0x30
		target := entry
		if j < depth-1 {
			target = entry - 0x400 + uint64(j+1)*0x30
		}
		g.frames = append(g.frames, callPC+4)
		g.bookkeep(g.queueEvent(secure.Branch{
			PC: callPC, Target: target, Taken: true, Kind: secure.Call,
		}))
	}
}

// queueEvent appends a user-mode event with a fresh instruction gap.
func (g *Generator) queueEvent(b secure.Branch) Event {
	ev := Event{Gap: g.gap(), Priv: keys.User, Branch: b}
	g.queue = append(g.queue, ev)
	return ev
}

// bookkeep counts a queued event's instructions.
func (g *Generator) bookkeep(ev Event) {
	g.instructions += uint64(ev.Gap) + 1
	g.branches++
}

// Next produces the next user-flow event (including instruction-driven
// syscall kernel bursts and call/return frames around region visits).
func (g *Generator) Next() Event {
	if g.qhead < len(g.queue) {
		ev := g.queue[g.qhead]
		g.qhead++
		if g.qhead == len(g.queue) {
			g.queue = g.queue[:0]
			g.qhead = 0
		}
		return ev
	}

	gap := g.gap()

	if g.kernelLeft > 0 {
		return g.kernelEvent(gap)
	}
	if g.nextSyscall >= 0 {
		g.nextSyscall -= gap + 1
		if g.nextSyscall <= 0 {
			g.kernelLeft = g.prof.KernelBurst
			g.scheduleSyscall()
			return g.kernelEvent(gap)
		}
	}

	sb := &g.user[g.cur]

	var ev Event
	if g.cur == g.regionLast && g.regionLast > g.regionFirst {
		// The region's loop back-edge.
		g.tripLeft--
		taken := g.tripLeft > 0
		ev = Event{Gap: gap, Priv: keys.User, Branch: secure.Branch{
			PC: sb.pc, Target: g.user[g.regionFirst].pc, Taken: taken, Kind: secure.Cond,
		}}
		if taken {
			g.cur = g.regionFirst
		} else {
			g.emitReturns()
			g.enterRegion(g.nextRegion())
			g.tripLeft = g.nextTrip()
			g.emitCalls()
		}
	} else {
		taken, target := g.outcome(sb)
		ev = Event{Gap: gap, Priv: keys.User, Branch: secure.Branch{
			PC: sb.pc, Target: target, Taken: taken, Kind: sb.branchKind(),
		}}
		g.cur++
		if g.cur > g.regionLast {
			g.cur = g.regionFirst
		}
	}

	g.instructions += uint64(gap) + 1
	g.branches++
	return ev
}

// kernelEvent emits one kernel-mode branch, consuming burst budget.
func (g *Generator) kernelEvent(gap int) Event {
	g.kernelLeft -= gap + 1
	sb := &g.kernel[g.kernelCursor]
	g.kernelCursor = (g.kernelCursor + 1) % len(g.kernel)
	taken, target := g.outcome(sb)
	g.instructions += uint64(gap) + 1
	g.branches++
	return Event{Gap: gap, Priv: keys.Kernel, Branch: secure.Branch{
		PC: sb.pc, Target: target, Taken: taken, Kind: sb.branchKind(),
	}}
}

// TimerBurst produces a kernel interrupt-handler burst of roughly n
// instructions; the pipeline calls it on timer ticks (cycle-driven events
// the instruction-driven generator cannot schedule itself).
func (g *Generator) TimerBurst(n int) []Event {
	var evs []Event
	left := n
	for left > 0 {
		gap := g.gap()
		ev := g.kernelTimerEvent(gap)
		evs = append(evs, ev)
		left -= gap + 1
	}
	return evs
}

func (g *Generator) kernelTimerEvent(gap int) Event {
	sb := &g.kernel[g.kernelCursor]
	g.kernelCursor = (g.kernelCursor + 1) % len(g.kernel)
	taken, target := g.outcome(sb)
	g.instructions += uint64(gap) + 1
	g.branches++
	return Event{Gap: gap, Priv: keys.Kernel, Branch: secure.Branch{
		PC: sb.pc, Target: target, Taken: taken, Kind: sb.branchKind(),
	}}
}

// gap draws the non-branch instruction gap.
func (g *Generator) gap() int {
	m := g.prof.BranchEvery
	if m < 2 {
		m = 2
	}
	return (m-1)/2 + g.rand.Intn(m)
}

// Instructions returns total instructions generated.
func (g *Generator) Instructions() uint64 { return g.instructions }

// Branches returns total branch events generated.
func (g *Generator) Branches() uint64 { return g.branches }

// Profile returns the generator's profile.
func (g *Generator) Profile() Profile { return g.prof }

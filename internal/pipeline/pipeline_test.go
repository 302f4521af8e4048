package pipeline

import (
	"testing"

	"hybp/internal/metrics"
	"hybp/internal/secure"
	"hybp/internal/workload"
)

func quickCore() CoreConfig {
	c := DefaultCoreConfig()
	c.TimerTickCycles = 200_000
	c.TimerBurstInstr = 400
	return c
}

func runOne(bpu secure.BPU, bench string, interval, maxCycles uint64) Result {
	sim := New(Config{
		Core:           quickCore(),
		BPU:            bpu,
		Threads:        []ThreadSpec{{Workload: workload.Get(bench), OtherWorkload: workload.Get("gcc"), Seed: 7}},
		SwitchInterval: interval,
		MaxCycles:      maxCycles,
		WarmupCycles:   maxCycles / 5,
	})
	return sim.Run()
}

func TestValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil BPU did not panic")
			}
		}()
		New(Config{Threads: []ThreadSpec{{Workload: workload.Get("gcc")}}})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no threads did not panic")
			}
		}()
		New(Config{BPU: secure.NewBaseline(secure.Config{Threads: 1, Seed: 1})})
	}()
}

func TestBaselineIPCInPlausibleRange(t *testing.T) {
	for _, tc := range []struct {
		bench    string
		min, max float64
	}{
		{"namd", 1.5, 3.2},  // H-ILP
		{"mcf", 0.25, 0.75}, // L-ILP, mispredict-heavy
	} {
		bpu := secure.NewBaseline(secure.Config{Threads: 1, Seed: 1})
		res := runOne(bpu, tc.bench, 0, 3_000_000)
		ipc := res.Threads[0].IPC()
		if ipc < tc.min || ipc > tc.max {
			t.Errorf("%s baseline IPC = %.3f, want [%.2f, %.2f]", tc.bench, ipc, tc.min, tc.max)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runOne(secure.NewBaseline(secure.Config{Threads: 1, Seed: 5}), "gcc", 500_000, 2_000_000)
	b := runOne(secure.NewBaseline(secure.Config{Threads: 1, Seed: 5}), "gcc", 500_000, 2_000_000)
	if a.Threads[0] != b.Threads[0] {
		t.Fatalf("same-seed runs diverged: %+v vs %+v", a.Threads[0], b.Threads[0])
	}
}

// TestFlushWithoutFlushingMatchesBaseline pins, at the pipeline level,
// a relation that holds by construction: secure.Flush with both flush
// triggers off builds and accesses the same predictor as the baseline and
// resets the same history on a switch, so one single-thread point with
// context switches and timer-driven privilege changes must measure the
// same ThreadResult on both.
func TestFlushWithoutFlushingMatchesBaseline(t *testing.T) {
	cfg := secure.Config{Threads: 1, Seed: 5}
	fl := secure.NewFlush(cfg)
	fl.FlushOnPrivilege, fl.FlushOnContext = false, false
	got := runOne(fl, "gcc", 500_000, 2_000_000).Threads[0]
	want := runOne(secure.NewBaseline(cfg), "gcc", 500_000, 2_000_000).Threads[0]
	if got != want {
		t.Fatalf("Flush with no flushing %+v, Baseline %+v", got, want)
	}
	if got.Switches == 0 || got.PrivChanges == 0 {
		t.Fatalf("point had %d switches and %d privilege changes; want both", got.Switches, got.PrivChanges)
	}
}

// TestPartitionMatchesReplicationAtZero pins, at the pipeline level,
// Figure 8's 0% point: the Partition mechanism is Replication with no
// extra storage, so one single-thread point with context switches and
// privilege changes must measure the same ThreadResult on both.
func TestPartitionMatchesReplicationAtZero(t *testing.T) {
	cfg := secure.Config{Threads: 1, Seed: 5}
	got := runOne(secure.NewPartition(cfg), "gcc", 500_000, 2_000_000).Threads[0]
	want := runOne(secure.NewReplication(cfg, 0), "gcc", 500_000, 2_000_000).Threads[0]
	if got != want {
		t.Fatalf("Partition %+v, Replication at 0%% %+v", got, want)
	}
	if got.Switches == 0 || got.PrivChanges == 0 {
		t.Fatalf("point had %d switches and %d privilege changes; want both", got.Switches, got.PrivChanges)
	}
}

func TestMispredictionsCostCycles(t *testing.T) {
	// Same trace, larger penalty ⇒ lower IPC.
	run := func(pen int) float64 {
		core := quickCore()
		core.MispredictPenalty = pen
		sim := New(Config{
			Core:      core,
			BPU:       secure.NewBaseline(secure.Config{Threads: 1, Seed: 3}),
			Threads:   []ThreadSpec{{Workload: workload.Get("mcf"), Seed: 3}},
			MaxCycles: 2_000_000,
		})
		return sim.Run().Threads[0].IPC()
	}
	if lo, hi := run(30), run(5); lo >= hi {
		t.Fatalf("IPC with penalty 30 (%.3f) not below penalty 5 (%.3f)", lo, hi)
	}
}

func TestExtraFrontEndHurtsLowAccuracyMore(t *testing.T) {
	// The Figure 2 effect: adding front-end cycles costs more for
	// low-accuracy workloads (mcf) than high-accuracy ones (namd).
	loss := func(bench string) float64 {
		ipc := func(extra int) float64 {
			core := quickCore()
			core.ExtraFrontEnd = extra
			sim := New(Config{
				Core:      core,
				BPU:       secure.NewBaseline(secure.Config{Threads: 1, Seed: 3}),
				Threads:   []ThreadSpec{{Workload: workload.Get(bench), Seed: 3}},
				MaxCycles: 3_000_000,
			})
			return sim.Run().Threads[0].IPC()
		}
		return metrics.DegradationPercent(ipc(0), ipc(8))
	}
	lossMcf, lossNamd := loss("mcf"), loss("namd")
	if lossMcf <= lossNamd {
		t.Fatalf("+8 cycles: mcf loss %.2f%% not above namd loss %.2f%%", lossMcf, lossNamd)
	}
	if lossMcf < 2 {
		t.Fatalf("+8 cycles on mcf only cost %.2f%%; expected a substantial hit", lossMcf)
	}
}

func TestContextSwitchesHappen(t *testing.T) {
	res := runOne(secure.NewBaseline(secure.Config{Threads: 1, Seed: 3}), "gcc", 250_000, 2_000_000)
	if res.Threads[0].Switches < 4 {
		t.Fatalf("switches = %d, want several at 250K interval over 2M cycles", res.Threads[0].Switches)
	}
	if res.Threads[0].PrivChanges == 0 {
		t.Fatal("no privilege transitions recorded")
	}
}

func TestFlushCostsMoreThanBaseline(t *testing.T) {
	base := runOne(secure.NewBaseline(secure.Config{Threads: 1, Seed: 3}), "deepsjeng", 500_000, 4_000_000)
	fl := runOne(secure.NewFlush(secure.Config{Threads: 1, Seed: 3}), "deepsjeng", 500_000, 4_000_000)
	d := metrics.DegradationPercent(base.Threads[0].IPC(), fl.Threads[0].IPC())
	if d <= 0.3 {
		t.Fatalf("flush degradation = %.2f%%, want clearly positive at 500K interval", d)
	}
}

func TestHyBPCheaperThanFlushAtLargeInterval(t *testing.T) {
	// The paper's headline single-thread ordering at long intervals:
	// baseline ≥ HyBP > Flush, Partition.
	const interval, cycles = 4_000_000, 20_000_000
	ipc := func(b secure.BPU) float64 {
		return runOne(b, "deepsjeng", interval, cycles).Threads[0].IPC()
	}
	base := ipc(secure.NewBaseline(secure.Config{Threads: 1, Seed: 3}))
	hy := ipc(secure.NewHyBP(secure.Config{Threads: 1, Seed: 3}))
	fl := ipc(secure.NewFlush(secure.Config{Threads: 1, Seed: 3}))
	pa := ipc(secure.NewPartition(secure.Config{Threads: 1, Seed: 3}))

	dHy := metrics.DegradationPercent(base, hy)
	dFl := metrics.DegradationPercent(base, fl)
	dPa := metrics.DegradationPercent(base, pa)
	t.Logf("degradation: hybp=%.2f%% flush=%.2f%% partition=%.2f%%", dHy, dFl, dPa)
	if dHy >= dFl {
		t.Errorf("hybp (%.2f%%) not cheaper than flush (%.2f%%)", dHy, dFl)
	}
	if dHy >= dPa {
		t.Errorf("hybp (%.2f%%) not cheaper than partition (%.2f%%)", dHy, dPa)
	}
	if dHy > 5 {
		t.Errorf("hybp degradation %.2f%% too large at 4M interval", dHy)
	}
}

func TestSMTThroughputAboveSingleThread(t *testing.T) {
	// Two threads must beat one thread but not reach 2× (shared core).
	solo := New(Config{
		Core:      quickCore(),
		BPU:       secure.NewBaseline(secure.Config{Threads: 1, Seed: 3}),
		Threads:   []ThreadSpec{{Workload: workload.Get("imagick"), Seed: 3}},
		MaxCycles: 3_000_000,
	}).Run().ThroughputIPC()

	smt := New(Config{
		Core: quickCore(),
		BPU:  secure.NewBaseline(secure.Config{Threads: 2, Seed: 3}),
		Threads: []ThreadSpec{
			{Workload: workload.Get("imagick"), Seed: 3},
			{Workload: workload.Get("xz"), Seed: 4},
		},
		MaxCycles: 3_000_000,
	}).Run().ThroughputIPC()

	if smt <= solo*1.02 {
		t.Fatalf("SMT throughput %.3f not above solo %.3f", smt, solo)
	}
	if smt >= solo*2.2 {
		t.Fatalf("SMT throughput %.3f implausibly high vs solo %.3f", smt, solo)
	}
}

func TestStaleKeyUsesObserved(t *testing.T) {
	res := runOne(secure.NewHyBP(secure.Config{Threads: 1, Seed: 3}), "gcc", 300_000, 3_000_000)
	if res.Threads[0].StaleKeyUses == 0 {
		t.Fatal("no stale-key accesses observed despite frequent key changes")
	}
}

func TestThreadResultDerivedMetrics(t *testing.T) {
	tr := ThreadResult{Instructions: 1000, Cycles: 500, CondBranches: 100, DirMispred: 5}
	if tr.IPC() != 2.0 {
		t.Fatalf("IPC = %v", tr.IPC())
	}
	if tr.MPKI() != 5.0 {
		t.Fatalf("MPKI = %v", tr.MPKI())
	}
	if tr.Accuracy() != 0.95 {
		t.Fatalf("accuracy = %v", tr.Accuracy())
	}
	var zero ThreadResult
	if zero.IPC() != 0 || zero.MPKI() != 0 || zero.Accuracy() != 0 {
		t.Fatal("zero-value metrics should be 0")
	}
}

func BenchmarkSimStep(b *testing.B) {
	sim := New(Config{
		Core:      quickCore(),
		BPU:       secure.NewHyBP(secure.Config{Threads: 1, Seed: 3}),
		Threads:   []ThreadSpec{{Workload: workload.Get("gcc"), Seed: 3}},
		MaxCycles: 1 << 62,
	})
	ts := sim.threads[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.step(ts)
	}
}

func TestWarmupExcludedFromMeasurement(t *testing.T) {
	cfgFor := func(warmup uint64) Config {
		return Config{
			Core:         quickCore(),
			BPU:          secure.NewBaseline(secure.Config{Threads: 1, Seed: 3}),
			Threads:      []ThreadSpec{{Workload: workload.Get("gcc"), Seed: 3}},
			MaxCycles:    2_000_000,
			WarmupCycles: warmup,
		}
	}
	full := New(cfgFor(0)).Run().Threads[0]
	tail := New(cfgFor(1_500_000)).Run().Threads[0]
	if tail.Instructions >= full.Instructions {
		t.Fatal("warmup did not reduce the measured window")
	}
	if tail.Cycles > full.Cycles/2 {
		t.Fatalf("measured cycles %d vs total-run %d; warmup not excluded", tail.Cycles, full.Cycles)
	}
	// The tail window runs at steady state: accuracy at least as good as
	// the whole run's (which includes the cold start).
	if tail.Accuracy()+0.01 < full.Accuracy() {
		t.Fatalf("steady-state accuracy %.4f below whole-run %.4f", tail.Accuracy(), full.Accuracy())
	}
}

func TestTimerTicksDisabled(t *testing.T) {
	core := quickCore()
	core.TimerTickCycles = 0
	sim := New(Config{
		Core: core,
		BPU:  secure.NewBaseline(secure.Config{Threads: 1, Seed: 3}),
		Threads: []ThreadSpec{{
			Workload: noSyscallProfile(),
			Seed:     3,
		}},
		MaxCycles: 1_000_000,
	})
	if res := sim.Run().Threads[0]; res.PrivChanges != 0 {
		t.Fatalf("privilege changes = %d with ticks and syscalls disabled", res.PrivChanges)
	}
}

func noSyscallProfile() workload.Profile {
	p := workload.Get("namd")
	p.SyscallEvery = 0
	return p
}

func TestContextSwitchWithoutPartnerStillNotifies(t *testing.T) {
	// A thread with no alternate workload still context-switches
	// (reschedule to the same process image under a new ASID epoch): the
	// BPU must still see the switch.
	f := secure.NewFlush(secure.Config{Threads: 1, Seed: 3})
	sim := New(Config{
		Core:           quickCore(),
		BPU:            f,
		Threads:        []ThreadSpec{{Workload: workload.Get("gcc"), Seed: 3}},
		SwitchInterval: 300_000,
		MaxCycles:      2_000_000,
	})
	res := sim.Run().Threads[0]
	if res.Switches < 5 {
		t.Fatalf("switches = %d", res.Switches)
	}
	if f.ContextFlushes < 5 {
		t.Fatalf("flushes = %d, want one per switch", f.ContextFlushes)
	}
}

func TestPartnerBuiltAtFirstSwitch(t *testing.T) {
	const budget = 400_000
	for _, tc := range []struct {
		interval uint64
		built    bool
	}{
		{0, false},
		{budget, false},
		{2 * budget, false},
		{budget / 4, true},
	} {
		s := New(Config{
			Core:           quickCore(),
			BPU:            secure.NewBaseline(secure.Config{Threads: 1, Seed: 1}),
			Threads:        []ThreadSpec{{Workload: workload.Get("namd"), OtherWorkload: workload.Get("gcc"), Seed: 7}},
			SwitchInterval: tc.interval,
			MaxCycles:      budget,
		})
		ts := s.threads[0]
		if ts.genB != nil {
			t.Fatalf("interval %d: partner built by New", tc.interval)
		}
		res := s.Run()
		if built := ts.genB != nil; built != tc.built {
			t.Errorf("interval %d: partner built = %v, want %v (%d switches)", tc.interval, built, tc.built, res.Threads[0].Switches)
		}
	}
}

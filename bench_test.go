package hybp

// One benchmark per paper table and figure (DESIGN.md §3), plus the
// ablation benches DESIGN.md §7 calls out. Each bench runs its experiment
// at a reduced scale and reports the reproduced headline numbers as custom
// metrics, so `go test -bench=.` both times the harness and regenerates
// the paper's rows. The hybpexp CLI runs the same experiments at full
// scale; EXPERIMENTS.md records a reference run.

import (
	"strings"
	"testing"

	"hybp/internal/cipher"
	"hybp/internal/keys"
	"hybp/internal/secure"
	"hybp/internal/sim"
	"hybp/internal/workload"
)

// benchScale keeps each experiment to a few seconds per iteration.
func benchScale() sim.Scale {
	return sim.Scale{
		MaxCycles:       2_500_000,
		WarmupCycles:    500_000,
		Intervals:       []uint64{400_000, 1_600_000},
		DefaultInterval: 1_600_000,
		Seed:            2022,
	}
}

// cold runs one experiment on a fresh in-memory runner, so every b.N
// iteration simulates its points rather than hitting the cache the
// previous iteration filled.
func cold[T any](exp func(r *sim.Runner) T) T {
	r := sim.NewDefaultRunner()
	defer r.Close()
	return exp(r)
}

func BenchmarkTable1(b *testing.B) {
	sc := benchScale()
	var last sim.Table1Result
	for i := 0; i < b.N; i++ {
		last = cold(func(r *sim.Runner) sim.Table1Result {
			return r.Table1(sc, []string{"gcc", "deepsjeng"}, workload.Mixes()[:2])
		})
	}
	for _, r := range last.Rows {
		name := strings.ReplaceAll(r.Mechanism, " ", "-")
		b.ReportMetric(r.PerfOverhead, name+"-ovh-%")
	}
}

func BenchmarkTable3(b *testing.B) {
	var last sim.Table3Result
	for i := 0; i < b.N; i++ {
		last = sim.Table3(sim.Table3Config{Iterations: 40, Seed: 5})
	}
	b.ReportMetric(last.SuccessRates["BTB/HyBP/smt-reuse"], "hybp-btb-success")
	b.ReportMetric(last.SuccessRates["BTB/Flush/smt-reuse"], "flush-btb-success")
}

func BenchmarkTable6(b *testing.B) {
	sc := benchScale()
	var last sim.Table6Result
	for i := 0; i < b.N; i++ {
		last = cold(func(r *sim.Runner) sim.Table6Result {
			return r.Table6(sc, []string{"gcc"}, []int{1024, 32768})
		})
	}
	b.ReportMetric(last.Loss[sc.DefaultInterval][1024], "loss-1K-%")
	b.ReportMetric(last.Loss[sc.DefaultInterval][32768], "loss-32K-%")
}

func BenchmarkFig2(b *testing.B) {
	sc := benchScale()
	var last sim.Fig2Result
	for i := 0; i < b.N; i++ {
		last = cold(func(r *sim.Runner) sim.Fig2Result {
			return r.Fig2(sc, []string{"mcf", "namd"})
		})
	}
	b.ReportMetric(last.Avg[8], "avg-loss-8cyc-%")
}

func BenchmarkFig5(b *testing.B) {
	sc := benchScale()
	var last sim.Fig5Result
	for i := 0; i < b.N; i++ {
		last = cold(func(r *sim.Runner) sim.Fig5Result {
			return r.Fig5(sc, []string{"deepsjeng"})
		})
	}
	b.ReportMetric(last.Avg[sc.DefaultInterval], "norm-ipc-at-default")
}

func BenchmarkFig6(b *testing.B) {
	sc := benchScale()
	var last sim.Fig6Result
	for i := 0; i < b.N; i++ {
		last = cold(func(r *sim.Runner) sim.Fig6Result {
			return r.Fig6(sc, []string{"deepsjeng", "gcc"})
		})
	}
	p := last.Points[len(last.Points)-1]
	b.ReportMetric(p.HyBP, "hybp-%")
	b.ReportMetric(p.Flush, "flush-%")
	b.ReportMetric(p.Partition, "partition-%")
}

func BenchmarkFig7(b *testing.B) {
	sc := benchScale()
	var last sim.Fig7Result
	for i := 0; i < b.N; i++ {
		last = cold(func(r *sim.Runner) sim.Fig7Result {
			return r.Fig7(sc, workload.Mixes()[:2])
		})
	}
	b.ReportMetric(last.AvgT[sim.MechHyBP], "hybp-thpt-%")
	b.ReportMetric(last.AvgT[sim.MechPartition], "partition-thpt-%")
	b.ReportMetric(last.AvgH[sim.MechHyBP], "hybp-hmean-%")
}

func BenchmarkFig8(b *testing.B) {
	sc := benchScale()
	var last sim.Fig8Result
	for i := 0; i < b.N; i++ {
		last = cold(func(r *sim.Runner) sim.Fig8Result {
			return r.Fig8(sc, workload.Mixes()[:1], []float64{0, 1.0, 2.4})
		})
	}
	b.ReportMetric(last.Points[0].PerfLoss, "repl-0-%")
	b.ReportMetric(last.Points[len(last.Points)-1].PerfLoss, "repl-240-%")
	b.ReportMetric(last.HyBPLoss, "hybp-%")
}

func BenchmarkTournament(b *testing.B) {
	sc := benchScale()
	var last sim.TournamentResult
	for i := 0; i < b.N; i++ {
		last = cold(func(r *sim.Runner) sim.TournamentResult {
			return r.Tournament(sc, []string{"deepsjeng", "gcc", "xz"})
		})
	}
	b.ReportMetric(last.GainPercent, "tage-gain-%")
}

func BenchmarkPoC(b *testing.B) {
	att := Context{Thread: 0, Priv: User, ASID: 2}
	vic := Context{Thread: 1, Priv: User, ASID: 3}
	cfg := DefaultPoCConfig(5)
	cfg.Iterations = 30
	var base, hy PoCResult
	for i := 0; i < b.N; i++ {
		base = BTBTrainingPoC(NewBPU(Options{Mechanism: Baseline, Threads: 2, Seed: 5, Scale: 1.0 / 16}), att, vic, cfg)
		hy = BTBTrainingPoC(NewBPU(Options{Mechanism: HyBP, Threads: 2, Seed: 5, Scale: 1.0 / 16}), att, vic, cfg)
	}
	b.ReportMetric(base.SuccessRate(), "baseline-success")
	b.ReportMetric(hy.SuccessRate(), "hybp-success")
}

func BenchmarkPPP(b *testing.B) {
	att := Context{Thread: 0, Priv: User, ASID: 2}
	vic := Context{Thread: 1, Priv: User, ASID: 3}
	x := Branch{PC: 0x20F00, Target: 0x21000, Taken: true, Kind: Jump}
	var accesses uint64
	wins := 0
	for i := 0; i < b.N; i++ {
		h := NewAttackHarness(NewBPU(Options{Mechanism: Baseline, Threads: 2, Seed: uint64(i), Scale: 1.0 / 16}), att, vic)
		res := PPP(h, PPPConfig{S: 64, W: 7, Seed: uint64(i)}, x, nil)
		if res.Found && res.Verified {
			wins++
			accesses += res.Accesses
		}
	}
	if wins > 0 {
		b.ReportMetric(float64(accesses)/float64(wins), "accesses-per-success")
	}
	b.ReportMetric(float64(wins)/float64(b.N), "success-rate")
}

func BenchmarkBlindContention(b *testing.B) {
	var n int
	var p float64
	for i := 0; i < b.N; i++ {
		n, p = BlindContentionOptimum(1024, 7, 4096)
	}
	b.ReportMetric(float64(n), "optimal-n")
	b.ReportMetric(p, "optimal-P")
}

func BenchmarkPHTReuse(b *testing.B) {
	var a float64
	for i := 0; i < b.N; i++ {
		a = PHTReuseAccesses(13, 12, 2, 1)
	}
	b.ReportMetric(a, "accesses")
}

// --- Ablations (DESIGN.md §7) ---------------------------------------------

// BenchmarkAblationCipher demonstrates the latency-hiding claim: because
// the code book is precomputed off the critical path, the cipher choice
// does not move IPC — only the (unused) inline latency differs.
func BenchmarkAblationCipher(b *testing.B) {
	sc := benchScale()
	run := func(kc keys.Config) float64 {
		bpu := secure.NewHyBP(secure.Config{Threads: 1, Seed: sc.Seed, Keys: kc})
		res := Simulate(SimConfig{
			Core: DefaultCoreConfig(),
			BPU:  bpu,
			Threads: []ThreadSpec{{
				Workload:      Benchmark("gcc"),
				OtherWorkload: Benchmark("perlbench"),
				Seed:          sc.Seed,
			}},
			SwitchInterval: sc.DefaultInterval,
			MaxCycles:      sc.MaxCycles,
			WarmupCycles:   sc.WarmupCycles,
		})
		return res.Threads[0].IPC()
	}
	var qarma, xor float64
	for i := 0; i < b.N; i++ {
		kcQ := keys.DefaultConfig(sc.Seed)
		qarma = run(kcQ)
		kcX := keys.DefaultConfig(sc.Seed)
		kcX.Cipher = cipher.NewLLBC([2]uint64{sc.Seed, sc.Seed ^ 0xF})
		xor = run(kcX)
	}
	b.ReportMetric(qarma, "ipc-qarma")
	b.ReportMetric(xor, "ipc-llbc")
}

// BenchmarkAblationKeyTrigger compares key-change triggers: context-switch
// only, counter only, and both (the paper's choice).
func BenchmarkAblationKeyTrigger(b *testing.B) {
	sc := benchScale()
	run := func(threshold int64, interval uint64) float64 {
		res := Simulate(SimConfig{
			Core: DefaultCoreConfig(),
			BPU: NewBPU(Options{
				Mechanism: HyBP, Threads: 1, Seed: sc.Seed,
				KeyChangeThreshold: threshold,
			}),
			Threads: []ThreadSpec{{
				Workload:      Benchmark("gcc"),
				OtherWorkload: Benchmark("perlbench"),
				Seed:          sc.Seed,
			}},
			SwitchInterval: interval,
			MaxCycles:      sc.MaxCycles,
			WarmupCycles:   sc.WarmupCycles,
		})
		return res.Threads[0].IPC()
	}
	var ctxOnly, counterOnly, both float64
	for i := 0; i < b.N; i++ {
		ctxOnly = run(-1, sc.DefaultInterval)
		counterOnly = run(1<<20, 0)
		both = run(1<<20, sc.DefaultInterval)
	}
	b.ReportMetric(ctxOnly, "ipc-ctx-only")
	b.ReportMetric(counterOnly, "ipc-counter-only")
	b.ReportMetric(both, "ipc-both")
}

// BenchmarkAblationSplit quantifies the Section V-B filtering the hybrid
// split buys: the fraction of BPU lookups that reach the shared last-level
// BTB — the attacker-visible information flow.
func BenchmarkAblationSplit(b *testing.B) {
	sc := benchScale()
	var rate float64
	for i := 0; i < b.N; i++ {
		h := secure.NewHyBP(secure.Config{Threads: 1, Seed: sc.Seed})
		Simulate(SimConfig{
			Core: DefaultCoreConfig(),
			BPU:  h,
			Threads: []ThreadSpec{{
				Workload: Benchmark("gcc"),
				Seed:     sc.Seed,
			}},
			MaxCycles:    sc.MaxCycles,
			WarmupCycles: 0,
		})
		rate = h.HierarchyFor(Context{Thread: 0, Priv: User}).LastLevelProbeRate()
	}
	b.ReportMetric(rate, "l2-probe-rate")
}

// BenchmarkAblationRefreshStall compares the paper's non-stalling refresh
// against a hypothetical design that stalls the pipeline for the full
// code-book fill at every context switch.
func BenchmarkAblationRefreshStall(b *testing.B) {
	sc := benchScale()
	var nonStall, stalled float64
	for i := 0; i < b.N; i++ {
		res := Simulate(SimConfig{
			Core: DefaultCoreConfig(),
			BPU:  NewBPU(Options{Mechanism: HyBP, Threads: 1, Seed: sc.Seed}),
			Threads: []ThreadSpec{{
				Workload:      Benchmark("gcc"),
				OtherWorkload: Benchmark("perlbench"),
				Seed:          sc.Seed,
			}},
			SwitchInterval: 400_000, // frequent switches stress the refresh
			MaxCycles:      sc.MaxCycles,
			WarmupCycles:   sc.WarmupCycles,
		})
		tr := res.Threads[0]
		nonStall = tr.IPC()
		// A stalled design pays the full refresh latency per switch:
		// charge it analytically on the same measurement.
		refresh := keys.NewTable(keys.DefaultConfig(sc.Seed)).RefreshLatency()
		extra := tr.Switches * uint64(refresh)
		stalled = float64(tr.Instructions) / float64(tr.Cycles+extra)
	}
	b.ReportMetric(nonStall, "ipc-nonstalling")
	b.ReportMetric(stalled, "ipc-stalled")
}

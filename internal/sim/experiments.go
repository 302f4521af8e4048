package sim

import (
	"fmt"
	"io"
	"sort"

	"hybp/internal/harness"
	"hybp/internal/metrics"
	"hybp/internal/pipeline"
	"hybp/internal/secure"
	"hybp/internal/workload"
)

// Every experiment below follows the harness's two-phase pattern: first
// enumerate all simulation points as jobs (Runner.Single/SMT/Solo return
// futures immediately; duplicates — e.g. the baseline runs shared between
// Table I, Figure 6, and the BRB comparison — coalesce onto one job), then
// collect results in deterministic enumeration order. Callers that run
// several experiments (cmd/hybpexp) share one Runner so common points are
// simulated once.

// ---------------------------------------------------------------------------
// Table I — comparison of security mechanisms.
// ---------------------------------------------------------------------------

// Table1Row is one mechanism's line of Table I.
type Table1Row struct {
	Mechanism    string
	PerfOverhead float64 // %
	HardwareCost float64 // % extra storage
	SingleSecure string
	SMTSecure    string
}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 regenerates the paper's Table I: single-thread average degradation
// for Flush, SMT-mix average degradation for Partition/Replication/HyBP,
// Disable-SMT throughput loss, and the storage overheads; security columns
// come from the Section VI analysis implemented in internal/attack (the
// same verdicts as the paper's Table III, asserted by the attack tests).
func (r *Runner) Table1(sc Scale, benches []string, mixes []workload.Mix) Table1Result {
	if len(benches) == 0 {
		benches = []string{"perlbench", "gcc", "deepsjeng", "xz", "namd", "imagick"}
	}
	if len(mixes) == 0 {
		mixes = workload.Mixes()[:4]
	}

	// Phase 1: enumerate every point. Single-thread Flush pairs (HyBP's
	// single-thread number is reported by Figure 6; Table I's HyBP row uses
	// the SMT mixes like Partition/Replication), the SMT baseline and
	// mechanism runs per mix, and the solo runs behind Disable-SMT.
	type pair struct {
		base, mech harness.Future[pipeline.ThreadResult]
	}
	flush := make([]pair, len(benches))
	for i, b := range benches {
		flush[i] = pair{
			base: r.Single(sc, b, Mech(MechBaseline), sc.DefaultInterval),
			mech: r.Single(sc, b, Mech(MechFlush), sc.DefaultInterval),
		}
	}
	smtBase := make([]harness.Future[pipeline.Result], len(mixes))
	soloA := make([]harness.Future[pipeline.ThreadResult], len(mixes))
	soloB := make([]harness.Future[pipeline.ThreadResult], len(mixes))
	for i, m := range mixes {
		smtBase[i] = r.SMT(sc, m, Mech(MechBaseline), sc.DefaultInterval)
		soloA[i] = r.Solo(sc, m.A, Mech(MechBaseline))
		soloB[i] = r.Solo(sc, m.B, Mech(MechBaseline))
	}
	mechIDs := []MechanismID{MechPartition, MechReplication, MechHyBP}
	smtMech := make(map[MechanismID][]harness.Future[pipeline.Result], len(mechIDs))
	for _, id := range mechIDs {
		fs := make([]harness.Future[pipeline.Result], len(mixes))
		for i, m := range mixes {
			fs[i] = r.SMT(sc, m, Mech(id), sc.DefaultInterval)
		}
		smtMech[id] = fs
	}

	// Phase 2: collect.
	flushLosses := make([]float64, 0, len(benches))
	for i := range benches {
		flushLosses = append(flushLosses, degradation(flush[i].base.Get(), flush[i].mech.Get()))
	}

	smtLoss := func(id MechanismID) float64 {
		losses := make([]float64, 0, len(mixes))
		for i := range mixes {
			losses = append(losses, metrics.DegradationPercent(
				smtBase[i].Get().ThroughputIPC(), smtMech[id][i].Get().ThroughputIPC()))
		}
		return metrics.Mean(losses)
	}
	partLoss := smtLoss(MechPartition)
	replLoss := smtLoss(MechReplication)
	hybpLoss := smtLoss(MechHyBP)

	// Disable SMT: the mixes' two benchmarks time-shared on one hardware
	// thread vs SMT-2 baseline throughput. Serial execution's combined
	// throughput is total work over summed time — the harmonic combination
	// of the two solo IPCs.
	disableLosses := make([]float64, 0, len(mixes))
	for i := range mixes {
		smt := smtBase[i].Get()
		a, b := soloA[i].Get(), soloB[i].Get()
		serial := 2 * a.IPC() * b.IPC() / (a.IPC() + b.IPC())
		disableLosses = append(disableLosses, metrics.DegradationPercent(smt.ThroughputIPC(), serial))
	}

	hw := func(id MechanismID) float64 {
		return secure.OverheadPercent(Mech(id).Build(secure.Config{Threads: 2, Seed: sc.Seed}))
	}

	return Table1Result{Rows: []Table1Row{
		{Mechanism: "Flush", PerfOverhead: metrics.Mean(flushLosses), HardwareCost: 0, SingleSecure: "yes", SMTSecure: "no"},
		{Mechanism: "Partition", PerfOverhead: partLoss, HardwareCost: hw(MechPartition), SingleSecure: "yes", SMTSecure: "yes"},
		{Mechanism: "Replication", PerfOverhead: replLoss, HardwareCost: hw(MechReplication), SingleSecure: "yes", SMTSecure: "yes"},
		{Mechanism: "Disable SMT", PerfOverhead: metrics.Mean(disableLosses), HardwareCost: 0, SingleSecure: "-", SMTSecure: "yes"},
		{Mechanism: "HyBP", PerfOverhead: hybpLoss, HardwareCost: HardwareCost(sc.Seed).OverheadPercent, SingleSecure: "yes", SMTSecure: "yes"},
	}}
}

// Print writes the table.
func (t Table1Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-12s %12s %12s %14s %10s\n", "Mechanism", "Perf ovh(%)", "HW cost(%)", "Single-Thread", "SMT")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-12s %12.1f %12.1f %14s %10s\n", r.Mechanism, r.PerfOverhead, r.HardwareCost, r.SingleSecure, r.SMTSecure)
	}
}

// ---------------------------------------------------------------------------
// Figure 2 — performance impact of extra front-end cycles.
// ---------------------------------------------------------------------------

// Fig2Row is one application's bars.
type Fig2Row struct {
	Bench    string
	Accuracy float64 // baseline prediction accuracy (the parenthesized number)
	Loss     map[int]float64
}

// Fig2Result is the full figure.
type Fig2Result struct {
	Extras []int
	Rows   []Fig2Row
	Avg    map[int]float64
}

// Fig2 regenerates Figure 2: IPC loss when the front-end pipeline grows by
// 2, 4, and 8 cycles (inline encryption latency) on a single-threaded core.
func (r *Runner) Fig2(sc Scale, benches []string) Fig2Result {
	if len(benches) == 0 {
		benches = workload.FigureApps()
	}
	extras := []int{2, 4, 8}

	baseF := make([]harness.Future[pipeline.ThreadResult], len(benches))
	exF := make([]map[int]harness.Future[pipeline.ThreadResult], len(benches))
	for i, b := range benches {
		baseF[i] = r.SingleFE(sc, b, Mech(MechBaseline), 0, 0)
		exF[i] = make(map[int]harness.Future[pipeline.ThreadResult], len(extras))
		for _, ex := range extras {
			exF[i][ex] = r.SingleFE(sc, b, Mech(MechBaseline), 0, ex)
		}
	}

	res := Fig2Result{Extras: extras, Avg: map[int]float64{}}
	sums := map[int]float64{}
	for i, b := range benches {
		base := baseF[i].Get()
		row := Fig2Row{Bench: b, Accuracy: base.Accuracy(), Loss: map[int]float64{}}
		for _, ex := range extras {
			loss := degradation(base, exF[i][ex].Get())
			row.Loss[ex] = loss
			sums[ex] += loss
		}
		res.Rows = append(res.Rows, row)
	}
	for _, ex := range extras {
		res.Avg[ex] = sums[ex] / float64(len(benches))
	}
	return res
}

// Print writes the figure data.
func (f Fig2Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-12s %10s", "Benchmark", "Accuracy")
	for _, ex := range f.Extras {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("+%dcyc(%%)", ex))
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-12s %9.1f%%", r.Bench, 100*r.Accuracy)
		for _, ex := range f.Extras {
			fmt.Fprintf(w, " %9.2f", r.Loss[ex])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s %10s", "average", "")
	for _, ex := range f.Extras {
		fmt.Fprintf(w, " %9.2f", f.Avg[ex])
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------------
// Figure 5 — HyBP per-application cost vs context-switch interval.
// ---------------------------------------------------------------------------

// Fig5Row is one application's series.
type Fig5Row struct {
	Bench string
	// NormalizedIPC maps interval → HyBP IPC / baseline IPC.
	NormalizedIPC map[uint64]float64
}

// Fig5Result is the figure.
type Fig5Result struct {
	Intervals []uint64
	Rows      []Fig5Row
	Avg       map[uint64]float64
}

// Fig5 regenerates Figure 5: normalized IPC of HyBP per application under
// different context-switch intervals on a single-threaded core.
func (r *Runner) Fig5(sc Scale, benches []string) Fig5Result {
	if len(benches) == 0 {
		benches = workload.FigureApps()
	}

	type pair struct {
		base, hy harness.Future[pipeline.ThreadResult]
	}
	futs := make(map[string]map[uint64]pair, len(benches))
	for _, b := range benches {
		futs[b] = make(map[uint64]pair, len(sc.Intervals))
		for _, iv := range sc.Intervals {
			futs[b][iv] = pair{
				base: r.Single(sc, b, Mech(MechBaseline), iv),
				hy:   r.Single(sc, b, Mech(MechHyBP), iv),
			}
		}
	}

	res := Fig5Result{Intervals: sc.Intervals, Avg: map[uint64]float64{}}
	sums := map[uint64]float64{}
	for _, b := range benches {
		row := Fig5Row{Bench: b, NormalizedIPC: map[uint64]float64{}}
		for _, iv := range sc.Intervals {
			p := futs[b][iv]
			base, hy := p.base.Get(), p.hy.Get()
			n := 0.0
			if base.IPC() > 0 {
				n = hy.IPC() / base.IPC()
			}
			row.NormalizedIPC[iv] = n
			sums[iv] += n
		}
		res.Rows = append(res.Rows, row)
	}
	for _, iv := range sc.Intervals {
		res.Avg[iv] = sums[iv] / float64(len(benches))
	}
	return res
}

// Print writes the figure data.
func (f Fig5Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-12s", "Benchmark")
	for _, iv := range f.Intervals {
		fmt.Fprintf(w, " %10s", fmtInterval(iv))
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-12s", r.Bench)
		for _, iv := range f.Intervals {
			fmt.Fprintf(w, " %10.4f", r.NormalizedIPC[iv])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "average")
	for _, iv := range f.Intervals {
		fmt.Fprintf(w, " %10.4f", f.Avg[iv])
	}
	fmt.Fprintln(w)
}

func fmtInterval(iv uint64) string {
	switch {
	case iv >= 1_000_000:
		return fmt.Sprintf("%dM", iv/1_000_000)
	case iv >= 1_000:
		return fmt.Sprintf("%dK", iv/1_000)
	default:
		return fmt.Sprintf("%d", iv)
	}
}

// ---------------------------------------------------------------------------
// Figure 6 — mechanism comparison across intervals with flush decomposition.
// ---------------------------------------------------------------------------

// Fig6Point is one (mechanism, interval) average.
type Fig6Point struct {
	Interval uint64
	HyBP     float64
	Flush    float64
	// FlushCtxPart is the share of the Flush loss caused by context-switch
	// flushing alone (the shaded bar of the paper's figure).
	FlushCtxPart float64
	Partition    float64
}

// Fig6Result is the figure.
type Fig6Result struct {
	Points []Fig6Point
}

// Fig6 regenerates Figure 6: average single-thread degradation of HyBP,
// Flush (split into context-switch and privilege-change components), and
// Partition across context-switch intervals.
func (r *Runner) Fig6(sc Scale, benches []string) Fig6Result {
	if len(benches) == 0 {
		benches = []string{"perlbench", "gcc", "deepsjeng", "xz", "fotonik3d", "namd", "imagick", "xalancbmk"}
	}

	flushCtx := Mech(MechFlush)
	flushCtx.FlushCtxOnly = true
	mechs := []MechSpec{Mech(MechHyBP), Mech(MechFlush), flushCtx, Mech(MechPartition)}

	type cell struct {
		base harness.Future[pipeline.ThreadResult]
		mech [4]harness.Future[pipeline.ThreadResult]
	}
	cells := make(map[uint64][]cell, len(sc.Intervals))
	for _, iv := range sc.Intervals {
		cs := make([]cell, len(benches))
		for i, b := range benches {
			cs[i].base = r.Single(sc, b, Mech(MechBaseline), iv)
			for j, m := range mechs {
				cs[i].mech[j] = r.Single(sc, b, m, iv)
			}
		}
		cells[iv] = cs
	}

	var res Fig6Result
	for _, iv := range sc.Intervals {
		var sums [4][]float64
		for _, c := range cells[iv] {
			base := c.base.Get()
			for j := range mechs {
				sums[j] = append(sums[j], degradation(base, c.mech[j].Get()))
			}
		}
		res.Points = append(res.Points, Fig6Point{
			Interval:     iv,
			HyBP:         metrics.Mean(sums[0]),
			Flush:        metrics.Mean(sums[1]),
			FlushCtxPart: metrics.Mean(sums[2]),
			Partition:    metrics.Mean(sums[3]),
		})
	}
	return res
}

// Print writes the figure data.
func (f Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-10s %10s %10s %14s %12s\n", "Interval", "HyBP(%)", "Flush(%)", "Flush-ctx(%)", "Partition(%)")
	for _, p := range f.Points {
		fmt.Fprintf(w, "%-10s %10.2f %10.2f %14.2f %12.2f\n",
			fmtInterval(p.Interval), p.HyBP, p.Flush, p.FlushCtxPart, p.Partition)
	}
}

// ---------------------------------------------------------------------------
// Figure 7 — SMT throughput and Hmean fairness.
// ---------------------------------------------------------------------------

// Fig7Row is one mix's bars.
type Fig7Row struct {
	Mix string
	// ThroughputLoss and HmeanLoss map mechanism → % degradation vs the
	// SMT baseline.
	ThroughputLoss map[MechanismID]float64
	HmeanLoss      map[MechanismID]float64
}

// Fig7Result is the figure.
type Fig7Result struct {
	Mechs []MechanismID
	Rows  []Fig7Row
	AvgT  map[MechanismID]float64
	AvgH  map[MechanismID]float64
}

// Fig7 regenerates Figure 7: per-mix SMT throughput degradation (a) and
// Hmean fairness degradation (b) for Partition, Replication, and HyBP.
// Flush is excluded by design — it does not protect SMT (Table III).
func (r *Runner) Fig7(sc Scale, mixes []workload.Mix) Fig7Result {
	if len(mixes) == 0 {
		mixes = workload.Mixes()
	}
	mechs := []MechanismID{MechPartition, MechReplication, MechHyBP}
	res := Fig7Result{Mechs: mechs, AvgT: map[MechanismID]float64{}, AvgH: map[MechanismID]float64{}}

	// Solo runs repeat across mixes; the harness dedupes them to one job.
	soloF := make(map[string]harness.Future[pipeline.ThreadResult])
	for _, m := range mixes {
		for _, b := range []string{m.A, m.B} {
			soloF[b] = r.Solo(sc, b, Mech(MechBaseline))
		}
	}
	baseF := make([]harness.Future[pipeline.Result], len(mixes))
	mechF := make([]map[MechanismID]harness.Future[pipeline.Result], len(mixes))
	for i, m := range mixes {
		baseF[i] = r.SMT(sc, m, Mech(MechBaseline), sc.DefaultInterval)
		mechF[i] = make(map[MechanismID]harness.Future[pipeline.Result], len(mechs))
		for _, id := range mechs {
			mechF[i][id] = r.SMT(sc, m, Mech(id), sc.DefaultInterval)
		}
	}

	solo := func(bench string) float64 { return soloF[bench].Get().IPC() }
	sumsT := map[MechanismID]float64{}
	sumsH := map[MechanismID]float64{}
	for i, m := range mixes {
		base := baseF[i].Get()
		baseHmean := metrics.Hmean(
			[]float64{solo(m.A), solo(m.B)},
			[]float64{base.Threads[0].IPC(), base.Threads[1].IPC()},
		)
		row := Fig7Row{Mix: m.Name, ThroughputLoss: map[MechanismID]float64{}, HmeanLoss: map[MechanismID]float64{}}
		for _, id := range mechs {
			mr := mechF[i][id].Get()
			tl := metrics.DegradationPercent(base.ThroughputIPC(), mr.ThroughputIPC())
			h := metrics.Hmean(
				[]float64{solo(m.A), solo(m.B)},
				[]float64{mr.Threads[0].IPC(), mr.Threads[1].IPC()},
			)
			hl := metrics.DegradationPercent(baseHmean, h)
			row.ThroughputLoss[id] = tl
			row.HmeanLoss[id] = hl
			sumsT[id] += tl
			sumsH[id] += hl
		}
		res.Rows = append(res.Rows, row)
	}
	for _, id := range mechs {
		res.AvgT[id] = sumsT[id] / float64(len(mixes))
		res.AvgH[id] = sumsH[id] / float64(len(mixes))
	}
	return res
}

// Print writes the figure data.
func (f Fig7Result) Print(w io.Writer) {
	fmt.Fprintf(w, "(a) throughput degradation (%%)\n%-8s", "Mix")
	for _, id := range f.Mechs {
		fmt.Fprintf(w, " %12s", id)
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-8s", r.Mix)
		for _, id := range f.Mechs {
			fmt.Fprintf(w, " %12.2f", r.ThroughputLoss[id])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s", "avg")
	for _, id := range f.Mechs {
		fmt.Fprintf(w, " %12.2f", f.AvgT[id])
	}
	fmt.Fprintf(w, "\n\n(b) Hmean fairness degradation (%%)\n%-8s", "Mix")
	for _, id := range f.Mechs {
		fmt.Fprintf(w, " %12s", id)
	}
	fmt.Fprintln(w)
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%-8s", r.Mix)
		for _, id := range f.Mechs {
			fmt.Fprintf(w, " %12.2f", r.HmeanLoss[id])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-8s", "avg")
	for _, id := range f.Mechs {
		fmt.Fprintf(w, " %12.2f", f.AvgH[id])
	}
	fmt.Fprintln(w)
}

// ---------------------------------------------------------------------------
// Figure 8 — replication storage sweep.
// ---------------------------------------------------------------------------

// Fig8Point is one storage-overhead data point.
type Fig8Point struct {
	OverheadPercent float64 // extra storage vs baseline
	PerfLoss        float64 // throughput degradation vs SMT baseline
}

// Fig8Result is the figure, plus HyBP's reference point.
type Fig8Result struct {
	Points    []Fig8Point
	HyBPLoss  float64
	HyBPCost  float64
	Crossover float64 // overhead where replication first matches HyBP
}

// Fig8 regenerates Figure 8: replication's performance loss as its storage
// overhead scales from 0 to 300%, against HyBP's (loss, cost) point; the
// paper finds the crossover near 240%.
func (r *Runner) Fig8(sc Scale, mixes []workload.Mix, overheads []float64) Fig8Result {
	if len(mixes) == 0 {
		mixes = []workload.Mix{workload.Mixes()[0], workload.Mixes()[4], workload.Mixes()[8]}
	}
	if len(overheads) == 0 {
		overheads = []float64{0, 0.5, 1.0, 1.5, 2.0, 2.4, 3.0}
	}

	baseF := make([]harness.Future[pipeline.Result], len(mixes))
	for i, m := range mixes {
		baseF[i] = r.SMT(sc, m, Mech(MechBaseline), sc.DefaultInterval)
	}
	submitSweep := func(spec MechSpec) []harness.Future[pipeline.Result] {
		fs := make([]harness.Future[pipeline.Result], len(mixes))
		for i, m := range mixes {
			fs[i] = r.SMT(sc, m, spec, sc.DefaultInterval)
		}
		return fs
	}
	replF := make([][]harness.Future[pipeline.Result], len(overheads))
	for i, ov := range overheads {
		spec := Mech(MechReplication)
		spec.ReplFactor = ov
		replF[i] = submitSweep(spec)
	}
	hybpF := submitSweep(Mech(MechHyBP))

	avgLoss := func(fs []harness.Future[pipeline.Result]) float64 {
		var ls []float64
		for i := range mixes {
			ls = append(ls, metrics.DegradationPercent(
				baseF[i].Get().ThroughputIPC(), fs[i].Get().ThroughputIPC()))
		}
		return metrics.Mean(ls)
	}

	var res Fig8Result
	for i, ov := range overheads {
		res.Points = append(res.Points, Fig8Point{OverheadPercent: 100 * ov, PerfLoss: avgLoss(replF[i])})
	}
	res.HyBPLoss = avgLoss(hybpF)
	res.HyBPCost = HardwareCost(sc.Seed).OverheadPercent

	res.Crossover = -1
	sort.Slice(res.Points, func(i, j int) bool { return res.Points[i].OverheadPercent < res.Points[j].OverheadPercent })
	for _, p := range res.Points {
		if p.PerfLoss <= res.HyBPLoss {
			res.Crossover = p.OverheadPercent
			break
		}
	}
	return res
}

// Print writes the figure data.
func (f Fig8Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-14s %12s\n", "Overhead(%)", "PerfLoss(%)")
	for _, p := range f.Points {
		fmt.Fprintf(w, "%-14.0f %12.2f\n", p.OverheadPercent, p.PerfLoss)
	}
	fmt.Fprintf(w, "HyBP reference: loss %.2f%% at cost %.1f%%\n", f.HyBPLoss, f.HyBPCost)
	if f.Crossover >= 0 {
		fmt.Fprintf(w, "Replication matches HyBP at ≈%.0f%% extra storage\n", f.Crossover)
	} else {
		fmt.Fprintln(w, "Replication never matches HyBP within the sweep")
	}
}

// ---------------------------------------------------------------------------
// Table VI — keys-table size sensitivity.
// ---------------------------------------------------------------------------

// Table6Result maps (interval, keys-table entries) → HyBP degradation %.
type Table6Result struct {
	Intervals []uint64
	Sizes     []int
	Loss      map[uint64]map[int]float64
}

// Table6 regenerates Table VI: HyBP overhead versus the randomized index
// keys table size (the refresh window grows with the table, lengthening the
// stale-key period after each context switch).
func (r *Runner) Table6(sc Scale, benches []string, sizes []int) Table6Result {
	if len(benches) == 0 {
		benches = []string{"gcc", "deepsjeng", "xz", "imagick"}
	}
	if len(sizes) == 0 {
		sizes = []int{1024, 2048, 4096, 16384, 32768}
	}
	intervals := []uint64{sc.DefaultInterval / 4, sc.DefaultInterval}

	type pair struct {
		base, hy harness.Future[pipeline.ThreadResult]
	}
	futs := make(map[uint64]map[int][]pair, len(intervals))
	for _, iv := range intervals {
		futs[iv] = make(map[int][]pair, len(sizes))
		for _, size := range sizes {
			spec := Mech(MechHyBP)
			spec.KeysEntries = size
			ps := make([]pair, len(benches))
			for i, b := range benches {
				ps[i] = pair{
					base: r.Single(sc, b, Mech(MechBaseline), iv),
					hy:   r.Single(sc, b, spec, iv),
				}
			}
			futs[iv][size] = ps
		}
	}

	res := Table6Result{Intervals: intervals, Sizes: sizes, Loss: map[uint64]map[int]float64{}}
	for _, iv := range intervals {
		res.Loss[iv] = map[int]float64{}
		for _, size := range sizes {
			var ls []float64
			for _, p := range futs[iv][size] {
				ls = append(ls, degradation(p.base.Get(), p.hy.Get()))
			}
			res.Loss[iv][size] = metrics.Mean(ls)
		}
	}
	return res
}

// Print writes the table.
func (t Table6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-12s", "Interval")
	for _, s := range t.Sizes {
		fmt.Fprintf(w, " %8s", fmtEntries(s))
	}
	fmt.Fprintln(w)
	for _, iv := range t.Intervals {
		fmt.Fprintf(w, "%-12s", fmtInterval(iv))
		for _, s := range t.Sizes {
			fmt.Fprintf(w, " %7.2f%%", t.Loss[iv][s])
		}
		fmt.Fprintln(w)
	}
}

func fmtEntries(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dK", n/1024)
	}
	return fmt.Sprintf("%d", n)
}

// ---------------------------------------------------------------------------
// Section VII-F — TAGE-SC-L vs tournament.
// ---------------------------------------------------------------------------

// TournamentResult reports the direction-predictor comparison.
type TournamentResult struct {
	TageIPC, TournamentIPC float64
	GainPercent            float64
}

// Tournament regenerates the Section VII-F yardstick: the IPC gain of
// TAGE-SC-L over the decades-old tournament predictor (≈5.4% in the paper),
// the context for why single-digit protection overheads matter.
func (r *Runner) Tournament(sc Scale, benches []string) TournamentResult {
	if len(benches) == 0 {
		benches = workload.FigureApps()
	}
	tourn := Mech(MechBaseline)
	tourn.Tournament = true

	tageF := make([]harness.Future[pipeline.ThreadResult], len(benches))
	tournF := make([]harness.Future[pipeline.ThreadResult], len(benches))
	for i, b := range benches {
		tageF[i] = r.Solo(sc, b, Mech(MechBaseline))
		tournF[i] = r.Solo(sc, b, tourn)
	}

	var tageIPCs, tournIPCs []float64
	for i := range benches {
		tageIPCs = append(tageIPCs, tageF[i].Get().IPC())
		tournIPCs = append(tournIPCs, tournF[i].Get().IPC())
	}
	tg, tn := metrics.GeoMean(tageIPCs), metrics.GeoMean(tournIPCs)
	return TournamentResult{
		TageIPC:       tg,
		TournamentIPC: tn,
		GainPercent:   100 * (tg - tn) / tn,
	}
}

// Print writes the comparison.
func (t TournamentResult) Print(w io.Writer) {
	fmt.Fprintf(w, "TAGE-SC-L geomean IPC: %.3f\nTournament geomean IPC: %.3f\nTAGE gain: %.2f%%\n",
		t.TageIPC, t.TournamentIPC, t.GainPercent)
}

// ---------------------------------------------------------------------------
// Section VII-D — hardware cost.
// ---------------------------------------------------------------------------

// CostResult re-exports the secure.Cost report for the CLI.
type CostResult = secure.CostReport

// HardwareCost regenerates the Section VII-D accounting.
func HardwareCost(seed uint64) CostResult {
	return secure.Cost(secure.NewHyBP(secure.Config{Threads: 2, Seed: seed}))
}

// PrintCost writes the report.
func PrintCost(w io.Writer, c CostResult) {
	fmt.Fprintf(w, "Replicated L0/L1 BTB + base predictor copies: %6.1f KB\n", c.ReplicatedKB)
	fmt.Fprintf(w, "Randomized index keys tables:                 %6.1f KB\n", c.KeysTablesKB)
	fmt.Fprintf(w, "QARMA-64 engine (area equivalent):            %6.1f KB\n", c.CipherKB)
	fmt.Fprintf(w, "Total:                                        %6.1f KB\n", c.TotalKB)
	fmt.Fprintf(w, "Baseline BPU storage:                         %6.1f KB\n", c.BaselineKB)
	fmt.Fprintf(w, "Overhead:                                     %6.1f %%\n", c.OverheadPercent)
}

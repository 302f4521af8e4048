package sim

import (
	"fmt"
	"io"
	"sort"

	"hybp/internal/metrics"
	"hybp/internal/pipeline"
	"hybp/internal/secure"
	"hybp/internal/workload"
)

// Every Section VII experiment below is a declaration of cells plus the
// fill of its result struct. A cell is one paired comparison: a mechanism
// point and its unprotected-baseline point on each of a list of workloads
// (single-thread benchmarks, solo benchmarks or SMT-2 mixes), at one
// switch interval, for n seeds. Both points of a pair replay the same
// wlSeed streams, so the pair's difference is the mechanism's alone.
// Declaring a cell (Runner.pair) submits all its points at once, and
// experiments declare every cell before they reduce any, so the whole
// experiment runs in parallel on the pool; points shared between cells or
// experiments (the baselines above all) coalesce onto one job. The
// reducers block on the results: each maps a per-workload metric over the
// first seed's workloads, and stats summarizes its per-seed means. Callers
// that run several experiments (cmd/hybpexp) share one Runner so common
// points are simulated once.

// A cell declares one paired comparison: mech, with extraFE extra
// front-end cycles, against the baseline on every workload of on, at
// switch interval iv, for seeds seeds (0 counts as 1).
type cell struct {
	on      []PointSpec // each names a Kind and its Bench, or A and B
	mech    MechSpec
	iv      uint64
	extraFE int // the mechanism point's only (Figure 2)
	seeds   int
}

// singles, solos and smts name a cell's workloads: benchmarks
// time-sharing a core with a partner process, benchmarks alone, and
// SMT-2 mixes.
func singles(benches ...string) []PointSpec { return named(PointSingle, benches) }
func solos(benches ...string) []PointSpec   { return named(PointSolo, benches) }

func named(kind string, benches []string) []PointSpec {
	ws := make([]PointSpec, len(benches))
	for i, b := range benches {
		ws[i] = PointSpec{Kind: kind, Bench: b}
	}
	return ws
}

func smts(mixes []workload.Mix) []PointSpec {
	ws := make([]PointSpec, len(mixes))
	for i, m := range mixes {
		ws[i] = PointSpec{Kind: PointSMT, A: m.A, B: m.B}
	}
	return ws
}

// threads lists the mixes' benchmarks in thread order, two per mix.
func threads(mixes []workload.Mix) []string {
	bs := make([]string, 0, 2*len(mixes))
	for _, m := range mixes {
		bs = append(bs, m.A, m.B)
	}
	return bs
}

// paired is a declared cell: its points, [seed][workload].
type paired struct {
	mech, base [][]point
}

// point waits for a submitted job and views it as a pipeline.Result.
type point func() (pipeline.Result, error)

// pair declares c: it submits the mechanism and baseline point of every
// workload and seed, seed i at root sc.Seed + i*7919. A mechanism point
// identical to its baseline (a baseline-only cell) is submitted once.
func (r *Runner) pair(sc Scale, c cell) paired {
	n := max(c.seeds, 1)
	p := paired{mech: make([][]point, n), base: make([][]point, n)}
	for i := range n {
		s := sc
		s.Seed = sc.Seed + uint64(i)*7919
		for _, w := range c.on {
			bs, ms := s.point(w, Mech(MechBaseline), c.iv, 0), s.point(w, c.mech, c.iv, c.extraFE)
			b := r.submit(bs)
			m := b
			if ms != bs {
				m = r.submit(ms)
			}
			p.base[i] = append(p.base[i], b)
			p.mech[i] = append(p.mech[i], m)
		}
	}
	return p
}

// A metric compares workload w's mechanism result with its baseline's.
type metric func(w int, mech, base pipeline.Result) float64

// loss is the mechanism's throughput degradation in percent: a single
// thread's IPC loss, or an SMT mix's summed-IPC loss.
func loss(_ int, mech, base pipeline.Result) float64 {
	return metrics.DegradationPercent(base.ThroughputIPC(), mech.ThroughputIPC())
}

// normIPC is the mechanism's IPC normalized to the baseline's.
func normIPC(_ int, mech, base pipeline.Result) float64 {
	if b := base.ThroughputIPC(); b > 0 {
		return mech.ThroughputIPC() / b
	}
	return 0
}

func mechIPC(_ int, mech, _ pipeline.Result) float64 { return mech.ThroughputIPC() }
func baseIPC(_ int, _, base pipeline.Result) float64 { return base.ThroughputIPC() }

// ipcs lists a result's per-thread IPCs.
func ipcs(r pipeline.Result) []float64 {
	xs := make([]float64, len(r.Threads))
	for i, t := range r.Threads {
		xs[i] = t.IPC()
	}
	return xs
}

// each is m on every workload of the first seed.
func (p paired) each(m metric) []float64 { return p.at(0, m) }

func (p paired) at(seed int, m metric) []float64 {
	xs := make([]float64, len(p.base[seed]))
	for w := range xs {
		mech, _ := p.mech[seed][w]()
		base, _ := p.base[seed][w]()
		xs[w] = m(w, mech, base)
	}
	return xs
}

// stats summarizes m's per-seed mean over the workloads across seeds.
func (p paired) stats(m metric) SeedStats {
	xs := make([]float64, len(p.base))
	for i := range xs {
		xs[i] = metrics.Mean(p.at(i, m))
	}
	return Summarize(xs)
}

// mean is m's mean over the workloads, the mean of the seeds' means when
// the cell has several.
func (p paired) mean(m metric) float64 { return p.stats(m).Mean }

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

	// HyBP's single-thread number is reported by Figure 6; Table I's HyBP
	// row uses the SMT mixes like Partition/Replication.
	flush := r.pair(sc, cell{on: singles(benches...), mech: Mech(MechFlush), iv: sc.DefaultInterval})
	smt := func(id MechanismID) paired {
		return r.pair(sc, cell{on: smts(mixes), mech: Mech(id), iv: sc.DefaultInterval})
	}
	part, repl, hybp := smt(MechPartition), smt(MechReplication), smt(MechHyBP)
	solo := r.pair(sc, cell{on: solos(threads(mixes)...), mech: Mech(MechBaseline)})

	// Disable SMT: the mixes' two benchmarks time-shared on one hardware
	// thread vs SMT-2 baseline throughput. Serial execution's combined
	// throughput is total work over summed time — the harmonic combination
	// of the two solo IPCs.
	soloIPC := solo.each(baseIPC)
	disable := func(w int, _, base pipeline.Result) float64 {
		a, b := soloIPC[2*w], soloIPC[2*w+1]
		return metrics.DegradationPercent(base.ThroughputIPC(), 2*a*b/(a+b))
	}

	hw := func(id MechanismID) float64 {
		return secure.OverheadPercent(Mech(id).Build(secure.Config{Threads: 2, Seed: sc.Seed}))
	}

	return Table1Result{Rows: []Table1Row{
		{Mechanism: "Flush", PerfOverhead: flush.mean(loss), HardwareCost: 0, SingleSecure: "yes", SMTSecure: "no"},
		{Mechanism: "Partition", PerfOverhead: part.mean(loss), HardwareCost: hw(MechPartition), SingleSecure: "yes", SMTSecure: "yes"},
		{Mechanism: "Replication", PerfOverhead: repl.mean(loss), HardwareCost: hw(MechReplication), SingleSecure: "yes", SMTSecure: "yes"},
		{Mechanism: "Disable SMT", PerfOverhead: part.mean(disable), HardwareCost: 0, SingleSecure: "-", SMTSecure: "yes"},
		{Mechanism: "HyBP", PerfOverhead: hybp.mean(loss), HardwareCost: HardwareCost(sc.Seed).OverheadPercent, SingleSecure: "yes", SMTSecure: "yes"},
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
	cells := make([]paired, len(extras))
	for i, ex := range extras {
		cells[i] = r.pair(sc, cell{on: singles(benches...), mech: Mech(MechBaseline), extraFE: ex})
	}

	res := Fig2Result{Extras: extras, Avg: map[int]float64{}}
	acc := cells[0].each(func(_ int, _, base pipeline.Result) float64 { return base.Threads[0].Accuracy() })
	for i, b := range benches {
		res.Rows = append(res.Rows, Fig2Row{Bench: b, Accuracy: acc[i], Loss: map[int]float64{}})
	}
	for i, ex := range extras {
		ls := cells[i].each(loss)
		for j := range res.Rows {
			res.Rows[j].Loss[ex] = ls[j]
		}
		res.Avg[ex] = metrics.Mean(ls)
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
	cells := make([]paired, len(sc.Intervals))
	for i, iv := range sc.Intervals {
		cells[i] = r.pair(sc, cell{on: singles(benches...), mech: Mech(MechHyBP), iv: iv})
	}

	res := Fig5Result{Intervals: sc.Intervals, Avg: map[uint64]float64{}}
	for _, b := range benches {
		res.Rows = append(res.Rows, Fig5Row{Bench: b, NormalizedIPC: map[uint64]float64{}})
	}
	for i, iv := range sc.Intervals {
		ns := cells[i].each(normIPC)
		for j := range res.Rows {
			res.Rows[j].NormalizedIPC[iv] = ns[j]
		}
		res.Avg[iv] = metrics.Mean(ns)
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
	cells := make([][]paired, len(sc.Intervals))
	for i, iv := range sc.Intervals {
		for _, m := range mechs {
			cells[i] = append(cells[i], r.pair(sc, cell{on: singles(benches...), mech: m, iv: iv}))
		}
	}

	var res Fig6Result
	for i, iv := range sc.Intervals {
		c := cells[i]
		res.Points = append(res.Points, Fig6Point{
			Interval:     iv,
			HyBP:         c[0].mean(loss),
			Flush:        c[1].mean(loss),
			FlushCtxPart: c[2].mean(loss),
			Partition:    c[3].mean(loss),
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
	solo := r.pair(sc, cell{on: solos(threads(mixes)...), mech: Mech(MechBaseline)})
	cells := make([]paired, len(mechs))
	for i, id := range mechs {
		cells[i] = r.pair(sc, cell{on: smts(mixes), mech: Mech(id), iv: sc.DefaultInterval})
	}

	soloIPC := solo.each(baseIPC)
	hmeanLoss := func(w int, mech, base pipeline.Result) float64 {
		s := soloIPC[2*w : 2*w+2]
		return metrics.DegradationPercent(metrics.Hmean(s, ipcs(base)), metrics.Hmean(s, ipcs(mech)))
	}
	res := Fig7Result{Mechs: mechs, AvgT: map[MechanismID]float64{}, AvgH: map[MechanismID]float64{}}
	for _, m := range mixes {
		res.Rows = append(res.Rows, Fig7Row{Mix: m.Name, ThroughputLoss: map[MechanismID]float64{}, HmeanLoss: map[MechanismID]float64{}})
	}
	for i, id := range mechs {
		ts, hs := cells[i].each(loss), cells[i].each(hmeanLoss)
		for j := range res.Rows {
			res.Rows[j].ThroughputLoss[id] = ts[j]
			res.Rows[j].HmeanLoss[id] = hs[j]
		}
		res.AvgT[id], res.AvgH[id] = metrics.Mean(ts), metrics.Mean(hs)
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
	declare := func(m MechSpec) paired {
		return r.pair(sc, cell{on: smts(mixes), mech: m, iv: sc.DefaultInterval})
	}
	repl := make([]paired, len(overheads))
	for i, ov := range overheads {
		spec := Mech(MechReplication)
		spec.ReplFactor = ov
		repl[i] = declare(spec)
	}
	hybp := declare(Mech(MechHyBP))

	var res Fig8Result
	for i, ov := range overheads {
		res.Points = append(res.Points, Fig8Point{OverheadPercent: 100 * ov, PerfLoss: repl[i].mean(loss)})
	}
	res.HyBPLoss = hybp.mean(loss)
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
	cells := make(map[uint64][]paired, len(intervals))
	for _, iv := range intervals {
		for _, size := range sizes {
			spec := Mech(MechHyBP)
			spec.KeysEntries = size
			cells[iv] = append(cells[iv], r.pair(sc, cell{on: singles(benches...), mech: spec, iv: iv}))
		}
	}

	res := Table6Result{Intervals: intervals, Sizes: sizes, Loss: map[uint64]map[int]float64{}}
	for _, iv := range intervals {
		res.Loss[iv] = map[int]float64{}
		for i, size := range sizes {
			res.Loss[iv][size] = cells[iv][i].mean(loss)
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
	c := r.pair(sc, cell{on: solos(benches...), mech: tourn})
	tg, tn := metrics.GeoMean(c.each(baseIPC)), metrics.GeoMean(c.each(mechIPC))
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

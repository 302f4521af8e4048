package sim

import (
	"fmt"
	"io"
	"math"

	"hybp/internal/metrics"
)

// SeedStats summarizes a metric measured across independent seeds: the
// paper reports single Gem5 numbers; we can do better and expose run-to-run
// variation so shape claims are distinguishable from noise.
type SeedStats struct {
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	N      int
}

// CI95 is the half-width of the 95% confidence interval of the mean
// (normal approximation).
func (s SeedStats) CI95() float64 {
	if s.N <= 1 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String implements fmt.Stringer.
func (s SeedStats) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d, min %.3f, max %.3f)", s.Mean, s.CI95(), s.N, s.Min, s.Max)
}

// Summarize computes SeedStats over xs.
func Summarize(xs []float64) SeedStats {
	if len(xs) == 0 {
		return SeedStats{}
	}
	st := SeedStats{N: len(xs), Min: xs[0], Max: xs[0]}
	st.Mean = metrics.Mean(xs)
	varSum := 0.0
	for _, x := range xs {
		d := x - st.Mean
		varSum += d * d
		if x < st.Min {
			st.Min = x
		}
		if x > st.Max {
			st.Max = x
		}
	}
	if len(xs) > 1 {
		st.StdDev = math.Sqrt(varSum / float64(len(xs)-1))
	}
	return st
}

// MultiSeedDegradation measures a mechanism's single-thread degradation on
// one benchmark across n seeds at the default interval. Each seed's root
// is distinct, so its points are distinct jobs; the n seeds all run in
// parallel on the pool.
func (r *Runner) MultiSeedDegradation(sc Scale, bench string, id MechanismID, n int) SeedStats {
	return r.multiSeed(sc, bench, id, n).stats(loss)
}

func (r *Runner) multiSeed(sc Scale, bench string, id MechanismID, n int) paired {
	return r.pair(sc, cell{on: singles(bench), mech: Mech(id), iv: sc.DefaultInterval, seeds: n})
}

// MultiSeedResult is the per-mechanism seed sweep on one benchmark — the
// `seeds` experiment of cmd/hybpexp, also consumed as JSON.
type MultiSeedResult struct {
	Bench    string
	Seeds    int
	Interval uint64
	Mechs    []MechanismID
	Stats    map[MechanismID]SeedStats
}

// MultiSeed measures every protection mechanism's degradation noise floor
// on one benchmark across n seeds.
func (r *Runner) MultiSeed(sc Scale, bench string, n int) MultiSeedResult {
	res := MultiSeedResult{
		Bench:    bench,
		Seeds:    n,
		Interval: sc.DefaultInterval,
		Mechs:    []MechanismID{MechFlush, MechPartition, MechBRB, MechHyBP},
		Stats:    map[MechanismID]SeedStats{},
	}
	cells := make([]paired, len(res.Mechs))
	for i, id := range res.Mechs {
		cells[i] = r.multiSeed(sc, bench, id, n)
	}
	for i, id := range res.Mechs {
		res.Stats[id] = cells[i].stats(loss)
	}
	return res
}

// Print writes the comparison.
func (m MultiSeedResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%s, %d seeds, interval %s:\n", m.Bench, m.Seeds, fmtInterval(m.Interval))
	for _, id := range m.Mechs {
		fmt.Fprintf(w, "  %-12s %s %%\n", id, m.Stats[id])
	}
}

package sim

import (
	"fmt"
	"io"

	"hybp/internal/secure"
)

// BRBResult is the Section VII-E style comparison of HyBP against the
// retention-buffer state of the art: similar performance at roughly half
// the storage overhead.
type BRBResult struct {
	HyBPLoss, BRBLoss             float64 // % degradation vs baseline
	HyBPOverheadKB, BRBOverheadKB float64
}

// BRBComparison measures both mechanisms on single-thread context-switch
// workloads at the default interval and accounts their storage. The
// baseline points are shared with Table I and Figure 6 through the cache.
func (r *Runner) BRBComparison(sc Scale, benches []string) BRBResult {
	if len(benches) == 0 {
		benches = []string{"gcc", "deepsjeng", "xz", "imagick"}
	}
	declare := func(id MechanismID) paired {
		return r.pair(sc, cell{on: singles(benches...), mech: Mech(id), iv: sc.DefaultInterval})
	}
	hy, brb := declare(MechHyBP), declare(MechBRB)
	brbBPU := Mech(MechBRB).Build(secure.Config{Threads: 2, Seed: sc.Seed})
	return BRBResult{
		HyBPLoss:       hy.mean(loss),
		BRBLoss:        brb.mean(loss),
		HyBPOverheadKB: HardwareCost(sc.Seed).TotalKB,
		BRBOverheadKB:  float64(brbBPU.StorageBits()-brbBPU.BaselineBits()) / 8 / 1024,
	}
}

// Print writes the comparison.
func (r BRBResult) Print(w io.Writer) {
	fmt.Fprintf(w, "%-8s %14s %16s\n", "", "perf loss (%)", "overhead (KB)")
	fmt.Fprintf(w, "%-8s %14.2f %16.1f\n", "HyBP", r.HyBPLoss, r.HyBPOverheadKB)
	fmt.Fprintf(w, "%-8s %14.2f %16.1f\n", "BRB", r.BRBLoss, r.BRBOverheadKB)
	fmt.Fprintf(w, "storage ratio BRB/HyBP: %.2fx (paper: \"more than twice\")\n",
		r.BRBOverheadKB/r.HyBPOverheadKB)
}

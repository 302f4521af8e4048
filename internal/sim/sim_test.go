package sim

import (
	"bytes"
	"testing"

	"hybp/internal/workload"
)

// quick returns the unit-test scale; shared across tests so the cached-run
// cost stays bounded.
func quick() Scale { return Quick() }

// newRunner returns a private in-memory runner closed when the test ends.
func newRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewDefaultRunner()
	t.Cleanup(r.Close)
	return r
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := newRunner(t).Table1(quick(), []string{"gcc", "deepsjeng", "xz"}, workload.Mixes()[:2])
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())

	get := func(name string) Table1Row {
		for _, r := range res.Rows {
			if r.Mechanism == name {
				return r
			}
		}
		t.Fatalf("row %q missing", name)
		return Table1Row{}
	}
	hy, fl, pa, re, ds := get("HyBP"), get("Flush"), get("Partition"), get("Replication"), get("Disable SMT")

	// Paper Table I orderings: HyBP cheapest; Partition worst of the
	// protections; Replication between; Disable-SMT large.
	if hy.PerfOverhead >= fl.PerfOverhead {
		t.Errorf("HyBP %.2f%% not below Flush %.2f%%", hy.PerfOverhead, fl.PerfOverhead)
	}
	if hy.PerfOverhead >= pa.PerfOverhead {
		t.Errorf("HyBP %.2f%% not below Partition %.2f%%", hy.PerfOverhead, pa.PerfOverhead)
	}
	if re.PerfOverhead >= pa.PerfOverhead {
		t.Errorf("Replication %.2f%% not below Partition %.2f%%", re.PerfOverhead, pa.PerfOverhead)
	}
	if ds.PerfOverhead < re.PerfOverhead {
		t.Errorf("Disable-SMT %.2f%% below Replication %.2f%%", ds.PerfOverhead, re.PerfOverhead)
	}
	// Hardware cost columns.
	if fl.HardwareCost != 0 {
		t.Errorf("Flush hardware cost = %.1f%%, want 0", fl.HardwareCost)
	}
	if re.HardwareCost < 80 || re.HardwareCost > 120 {
		t.Errorf("Replication hardware cost = %.1f%%, want ≈100", re.HardwareCost)
	}
	if hy.HardwareCost < 15 || hy.HardwareCost > 30 {
		t.Errorf("HyBP hardware cost = %.1f%%, want ≈21", hy.HardwareCost)
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := newRunner(t).Fig2(quick(), []string{"mcf", "namd", "deepsjeng"})
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())

	// Losses grow with extra cycles; low-accuracy apps lose more.
	if res.Avg[2] >= res.Avg[4] || res.Avg[4] >= res.Avg[8] {
		t.Errorf("average losses not monotonic: %+v", res.Avg)
	}
	var mcf, namd Fig2Row
	for _, r := range res.Rows {
		switch r.Bench {
		case "mcf":
			mcf = r
		case "namd":
			namd = r
		}
	}
	if mcf.Loss[8] <= namd.Loss[8] {
		t.Errorf("mcf +8 loss %.2f%% not above namd %.2f%%", mcf.Loss[8], namd.Loss[8])
	}
	if namd.Accuracy < 0.9 || mcf.Accuracy > namd.Accuracy {
		t.Errorf("accuracies off: namd %.3f mcf %.3f", namd.Accuracy, mcf.Accuracy)
	}
}

func TestFig5And6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	benches := []string{"deepsjeng", "gcc"}
	r := newRunner(t)
	f5 := r.Fig5(quick(), benches)
	var buf bytes.Buffer
	f5.Print(&buf)
	t.Logf("\n%s", buf.String())

	short, long := quick().Intervals[0], quick().Intervals[len(quick().Intervals)-1]
	if f5.Avg[long] <= f5.Avg[short] {
		t.Errorf("HyBP normalized IPC at %d (%.4f) not above at %d (%.4f): cost should shrink with interval",
			long, f5.Avg[long], short, f5.Avg[short])
	}
	if f5.Avg[long] < 0.9 {
		t.Errorf("HyBP normalized IPC at long interval = %.4f, want near 1", f5.Avg[long])
	}

	f6 := r.Fig6(quick(), benches)
	buf.Reset()
	f6.Print(&buf)
	t.Logf("\n%s", buf.String())
	last := f6.Points[len(f6.Points)-1]
	if last.HyBP >= last.Flush || last.HyBP >= last.Partition {
		t.Errorf("at long interval HyBP %.2f%% not below Flush %.2f%% and Partition %.2f%%",
			last.HyBP, last.Flush, last.Partition)
	}
	if last.FlushCtxPart > last.Flush+0.5 {
		t.Errorf("flush context component %.2f%% exceeds total %.2f%%", last.FlushCtxPart, last.Flush)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	mixes := []workload.Mix{workload.Mixes()[0], workload.Mixes()[6], workload.Mixes()[10]}
	res := newRunner(t).Fig7(quick(), mixes)
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())

	if res.AvgT[MechHyBP] >= res.AvgT[MechPartition] {
		t.Errorf("SMT throughput: HyBP %.2f%% not below Partition %.2f%%",
			res.AvgT[MechHyBP], res.AvgT[MechPartition])
	}
	if res.AvgH[MechHyBP] >= res.AvgH[MechPartition] {
		t.Errorf("Hmean: HyBP %.2f%% not below Partition %.2f%%",
			res.AvgH[MechHyBP], res.AvgH[MechPartition])
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := newRunner(t).Fig8(quick(), workload.Mixes()[:1], []float64{0, 1.0, 3.0})
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())

	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].PerfLoss <= res.Points[2].PerfLoss {
		t.Errorf("replication loss not decreasing with storage: %.2f%% → %.2f%%",
			res.Points[0].PerfLoss, res.Points[2].PerfLoss)
	}
}

func TestTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := newRunner(t).Table6(quick(), []string{"gcc"}, []int{1024, 32768})
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())

	shortIv, longIv := res.Intervals[0], res.Intervals[1]
	// Cost falls with interval and (weakly) rises with table size.
	if res.Loss[longIv][1024] > res.Loss[shortIv][1024]+0.3 {
		t.Errorf("keys cost at long interval %.2f%% above short %.2f%%",
			res.Loss[longIv][1024], res.Loss[shortIv][1024])
	}
}

func TestTournamentGain(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := newRunner(t).Tournament(quick(), []string{"deepsjeng", "gcc", "xz", "exchange2"})
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())
	if res.GainPercent <= 0 {
		t.Errorf("TAGE gain over tournament = %.2f%%, want positive", res.GainPercent)
	}
}

func TestHardwareCost(t *testing.T) {
	c := HardwareCost(1)
	if c.OverheadPercent < 15 || c.OverheadPercent > 30 {
		t.Errorf("overhead = %.1f%%, want ≈21.1", c.OverheadPercent)
	}
	var buf bytes.Buffer
	PrintCost(&buf, c)
	if buf.Len() == 0 {
		t.Error("empty cost report")
	}
}

func TestTable3Verdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	res := Table3(Table3Config{Iterations: 40, Seed: 5})
	var buf bytes.Buffer
	res.Print(&buf)
	t.Logf("\n%s", buf.String())

	for _, r := range res.Rows {
		if r.Mechanism == "HyBP" || r.Mechanism == "Physical Isolation" {
			if r.SMTReuse != "Defend" || r.SingleReuse != "Defend" {
				t.Errorf("%s/%s: reuse verdicts %s/%s, want Defend", r.Structure, r.Mechanism, r.SingleReuse, r.SMTReuse)
			}
		}
		if r.Mechanism == "Flush" && r.SMTReuse != "No Protection" {
			t.Errorf("%s/Flush: SMT reuse verdict %s, want No Protection", r.Structure, r.SMTReuse)
		}
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{1, 2, 3, 4})
	if st.Mean != 2.5 || st.Min != 1 || st.Max != 4 || st.N != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.StdDev < 1.29 || st.StdDev > 1.30 {
		t.Fatalf("stddev = %v", st.StdDev)
	}
	if st.CI95() <= 0 {
		t.Fatal("CI95 should be positive for n>1")
	}
	if z := Summarize(nil); z.N != 0 || z.CI95() != 0 {
		t.Fatalf("empty stats = %+v", z)
	}
	if s := st.String(); s == "" {
		t.Fatal("empty String")
	}
}

func TestMultiSeedDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	sc := quick()
	sc.MaxCycles = 2_500_000
	sc.WarmupCycles = 500_000
	st := newRunner(t).MultiSeedDegradation(sc, "gcc", MechFlush, 3)
	if st.N != 3 {
		t.Fatalf("n = %d", st.N)
	}
	if st.Mean < 0.2 {
		t.Errorf("flush degradation mean = %v, want clearly positive", st.Mean)
	}
}

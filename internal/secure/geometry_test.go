package secure

import "testing"

func TestScaledGeometryExactFractions(t *testing.T) {
	g := baseGeometry(1)
	for _, tc := range []struct {
		frac    float64
		l2Total int
	}{
		{0.25, 1792}, // a 4-way partition slice
		{0.5, 3584},  // SMT-2 replication at 100% overhead
		{1.0, 7168},  // full size
	} {
		s := g.scaled(tc.frac)
		if got := s.l2.Sets * s.l2.Ways; got != tc.l2Total {
			t.Errorf("frac %.2f: L2 entries = %d, want %d", tc.frac, got, tc.l2Total)
		}
	}
}

func TestScaledGeometrySmoothWays(t *testing.T) {
	// Between power-of-two points, the way count absorbs the remainder
	// (the Figure 8 sweep's smoothness).
	g := baseGeometry(1)
	s := g.scaled(0.85)
	total := s.l2.Sets * s.l2.Ways
	want := 6093
	if total < want*9/10 || total > want*11/10 {
		t.Errorf("frac 0.85: L2 entries = %d, want ≈%d", total, want)
	}
	if s.l2.Sets&(s.l2.Sets-1) != 0 {
		t.Errorf("sets %d not a power of two", s.l2.Sets)
	}
}

func TestScaledGeometryMonotonic(t *testing.T) {
	g := baseGeometry(1)
	prev := 0
	for _, f := range []float64{0.25, 0.4, 0.5, 0.7, 0.85, 1.0} {
		s := g.scaled(f)
		bits := s.storageBits()
		if bits < prev {
			t.Errorf("storage not monotonic at frac %.2f: %d < %d", f, bits, prev)
		}
		prev = bits
	}
}

func TestScaledGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive scale did not panic")
		}
	}()
	baseGeometry(1).scaled(0)
}

func TestScaledTageComponentsShrink(t *testing.T) {
	g := baseGeometry(1)
	s := g.scaled(0.25)
	if s.tage.Tables[0].Entries != 256 {
		t.Errorf("tagged entries = %d, want 256", s.tage.Tables[0].Entries)
	}
	if s.tage.BimodalEntries != 2048 {
		t.Errorf("bimodal = %d, want 2048", s.tage.BimodalEntries)
	}
	if s.tage.SCBiasEntries != 1024 || s.tage.SCGEntries != 256 {
		t.Errorf("SC sizes = %d/%d, want 1024/256", s.tage.SCBiasEntries, s.tage.SCGEntries)
	}
	if s.tage.LoopSets != 4 {
		t.Errorf("loop sets = %d, want 4", s.tage.LoopSets)
	}
}

func TestPartitionStorageMatchesBaseline(t *testing.T) {
	// Four quarter-partitions must cost ≈ one baseline (Table I's 0%).
	base := baseGeometry(1).storageBits()
	quarter := baseGeometry(1).scaled(0.25).storageBits()
	ratio := float64(4*quarter) / float64(base)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("partition storage ratio = %.3f, want ≈1", ratio)
	}
}

func TestGeometryStorageMatchesBuiltTables(t *testing.T) {
	// The geometry's storage, computed without building anything, must
	// equal what the built tables report.
	for _, f := range []float64{1.0 / 16, 0.25, 0.5, 1, 2} {
		g := baseGeometry(1).scaled(f)
		ps := newPredictorSet(g, 1)
		built := ps.btb.StorageBits() + ps.tage.StorageBits() + ps.tage.Base().StorageBits()
		if got := g.storageBits(); got != built {
			t.Errorf("scale %v: geometry storage %d bits, built tables %d", f, got, built)
		}
	}
}

func TestClampPow2(t *testing.T) {
	for _, tc := range []struct{ n, lo, hi, want int }{
		{100, 1, 1024, 64},
		{128, 1, 1024, 128},
		{1, 4, 64, 4},
		{4096, 1, 1024, 1024},
		{0, 2, 64, 2},
	} {
		if got := clampPow2(tc.n, tc.lo, tc.hi); got != tc.want {
			t.Errorf("clampPow2(%d,%d,%d) = %d, want %d", tc.n, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestCostSingleThread(t *testing.T) {
	// A single-threaded HyBP still replicates per privilege level (one
	// extra copy) and carries two keys tables.
	rep := Cost(NewHyBP(testCfg(1, 5)))
	if rep.KeysTablesKB != 2.5 {
		t.Errorf("keys tables = %v KB, want 2.5 (2 contexts × 1.25)", rep.KeysTablesKB)
	}
	if rep.ReplicatedKB <= 0 {
		t.Error("no replication cost on 1T core; one privilege copy expected")
	}
}

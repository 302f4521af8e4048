// Package sim drives the paper's experiments: each exported function
// regenerates one table or figure of the evaluation (Section VII) or the
// security analysis (Section VI), returning structured rows the CLIs and
// benchmarks print. DESIGN.md §3 maps every experiment to its function.
package sim

import (
	"fmt"

	"hybp/internal/workload"
)

// Scale sets simulation fidelity. The paper warms 1B and measures 1B
// instructions per point on Gem5; our scales trade wall-clock for
// confidence while preserving relative shapes.
type Scale struct {
	// MaxCycles is the simulated cycle budget per data point.
	MaxCycles uint64
	// WarmupCycles are excluded from measurement.
	WarmupCycles uint64
	// Intervals is the context-switch sweep (cycles) for Figures 5/6.
	Intervals []uint64
	// DefaultInterval is the "default Linux time slice" point (16M cycles
	// at 4 GHz in the paper) used by single-interval experiments.
	DefaultInterval uint64
	// Seed drives all randomness.
	Seed uint64
}

// Validate rejects a scale whose warm-up is not below its cycle budget: its
// measurement window is empty, so every IPC would read 0 and every relative
// figure NaN. Front ends call it on the scale they resolved, after presets
// and overrides, before running anything.
func (sc Scale) Validate() error {
	if sc.WarmupCycles >= sc.MaxCycles {
		return fmt.Errorf("warmup (%d cycles) must be below the cycle budget (%d cycles)", sc.WarmupCycles, sc.MaxCycles)
	}
	return nil
}

// Tiny is the chaos/smoke-test scale: the whole experiment suite in
// seconds, so fault-injection runs can afford to execute it several
// times over (baseline, faulted, resumed). Orderings are NOT guaranteed
// stable at this scale — it exists to exercise plumbing, not science.
func Tiny() Scale {
	return Scale{
		MaxCycles:       700_000,
		WarmupCycles:    120_000,
		Intervals:       []uint64{100_000, 300_000},
		DefaultInterval: 300_000,
		Seed:            2022,
	}
}

// Quick returns a unit-test scale: small but large enough that the
// orderings the paper reports are stable.
func Quick() Scale {
	return Scale{
		MaxCycles:       6_000_000,
		WarmupCycles:    1_000_000,
		Intervals:       []uint64{500_000, 2_000_000},
		DefaultInterval: 2_000_000,
		Seed:            2022,
	}
}

// Medium is the CLI default: minutes of wall clock for the full suite.
func Medium() Scale {
	return Scale{
		MaxCycles:       48_000_000,
		WarmupCycles:    8_000_000,
		Intervals:       []uint64{256_000, 512_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000},
		DefaultInterval: 16_000_000,
		Seed:            2022,
	}
}

// Full stretches every point for the EXPERIMENTS.md record.
func Full() Scale {
	s := Medium()
	s.MaxCycles = 160_000_000
	s.WarmupCycles = 24_000_000
	return s
}

// MechanismID names a defense mechanism in experiment output.
type MechanismID string

// Mechanism identifiers.
const (
	MechBaseline    MechanismID = "baseline"
	MechFlush       MechanismID = "flush"
	MechPartition   MechanismID = "partition"
	MechReplication MechanismID = "replication"
	MechBRB         MechanismID = "brb"
	MechHyBP        MechanismID = "hybp"
)

// partnerOf picks the time-sharing partner process for single-thread
// context-switch studies (a different benchmark keeps the pollution
// realistic and deterministic).
func partnerOf(bench string) workload.Profile {
	if bench == "gcc" {
		return workload.Get("perlbench")
	}
	return workload.Get("gcc")
}

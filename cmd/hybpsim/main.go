// Command hybpsim runs a single branch-predictor simulation: one or two
// benchmarks on a chosen defense mechanism, with context switching, and
// prints IPC, MPKI, prediction accuracy, and the degradation versus the
// unprotected baseline.
//
// The point runs through sim.Runner.Versus, the same call a hybpd sim job
// makes, so hybpsim and hybpd print the same numbers for the same fields.
// Only the defaults differ: hybpsim simulates 48M cycles (8M warmup, 16M
// switch interval), hybpd 6M (1M warmup, 2M interval). -bench2 runs an
// SMT-2 mix; -interval 0 runs a lone thread without context switching.
//
// Examples:
//
//	hybpsim -bench deepsjeng -mech hybp -interval 16000000
//	hybpsim -bench imagick -bench2 xz -mech partition
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hybp/internal/sim"
	"hybp/internal/workload"
)

func main() {
	ids := sim.MechanismIDs()
	mechNames := make([]string, len(ids))
	for i, id := range ids {
		mechNames[i] = string(id)
	}
	var (
		bench    = flag.String("bench", "gcc", "benchmark for hardware thread 0")
		bench2   = flag.String("bench2", "", "benchmark for hardware thread 1 (enables SMT-2)")
		mech     = flag.String("mech", "hybp", "mechanism: "+strings.Join(mechNames, "|"))
		interval = flag.Uint64("interval", 16_000_000, "context-switch interval in cycles (0 disables)")
		cycles   = flag.Uint64("cycles", 48_000_000, "simulated cycles")
		warmup   = flag.Uint64("warmup", 8_000_000, "warmup cycles excluded from measurement")
		seed     = flag.Uint64("seed", 2022, "random seed")
		repl     = flag.Float64("replication-overhead", 1.0, "extra storage fraction for -mech replication")
		list     = flag.Bool("list", false, "list available benchmarks and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(workload.Names(), "\n"))
		return
	}

	// Validate every name-shaped flag up front with a one-line error that
	// lists the valid values, instead of panicking deep inside the
	// workload registry or mechanism dispatch.
	for _, b := range []struct{ flag, val string }{{"-bench", *bench}, {"-bench2", *bench2}} {
		if b.val != "" && !workload.Has(b.val) {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q for %s (valid: %s)\n",
				b.val, b.flag, strings.Join(workload.Names(), ", "))
			os.Exit(2)
		}
	}
	if *bench == "" {
		fmt.Fprintf(os.Stderr, "-bench is required (valid: %s)\n", strings.Join(workload.Names(), ", "))
		os.Exit(2)
	}
	mechID, err := sim.ParseMechanism(*mech)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-mech: %v\n", err)
		os.Exit(2)
	}
	m := sim.Mech(mechID)
	if mechID == sim.MechReplication {
		m.ReplFactor = *repl
	}
	if err := m.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "-replication-overhead: %v\n", err)
		os.Exit(2)
	}

	sc := sim.Scale{MaxCycles: *cycles, WarmupCycles: *warmup, Seed: *seed}
	if err := sc.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "-cycles/-warmup: %v\n", err)
		os.Exit(2)
	}
	r := sim.NewDefaultRunner()
	defer r.Close()
	res, base, err := r.Versus(sc, *bench, *bench2, m, *interval)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpsim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("mechanism=%s interval=%d cycles=%d\n", mechID, *interval, *cycles)
	names := []string{*bench, *bench2}
	for i, tr := range res.Threads {
		fmt.Printf("thread %d (%s): IPC=%.4f  MPKI=%.2f  accuracy=%.2f%%  switches=%d  privchanges=%d\n",
			i, names[i], tr.IPC(), tr.MPKI(), 100*tr.Accuracy(), tr.Switches, tr.PrivChanges)
	}
	fmt.Printf("throughput: %.4f IPC (baseline %.4f, degradation %.2f%%)\n",
		res.ThroughputIPC(), base.ThroughputIPC(),
		100*(base.ThroughputIPC()-res.ThroughputIPC())/base.ThroughputIPC())
}

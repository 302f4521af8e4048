// Command hybpattack runs the paper's Section VI security experiments:
// eviction-set construction (Algorithm 1 / PPP and the GEM baseline),
// blind-contention analysis (Equation 1), PHT reuse cost (Equation 2), the
// Section VI-D malicious-training proofs of concept, and the Section VI-C
// RSA square-and-multiply key leak.
//
// Usage:
//
//	hybpattack [-mech baseline|hybp|partition|flush] [-iters N] ppp|gem|blind|pht|poc|rsa|all
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"

	"hybp"
	"hybp/internal/sim"
)

// attacks lists the accepted attack names.
const attacks = "ppp|gem|blind|pht|poc|rsa|all"

// allAttacks is every attack, in the order "all" runs them.
var allAttacks = []string{"blind", "pht", "gem", "ppp", "poc", "rsa"}

// attackList resolves the command-line names to the attacks to run, in
// order, with "all" standing for every attack. It checks every name before
// anything runs, so a typo after a long attack is reported at once.
func attackList(names []string) ([]string, error) {
	var out []string
	for _, name := range names {
		if name == "all" {
			out = append(out, allAttacks...)
			continue
		}
		if !slices.Contains(allAttacks, name) {
			return nil, fmt.Errorf("unknown attack %q (want %s)", name, attacks)
		}
		out = append(out, name)
	}
	return out, nil
}

func main() {
	var (
		mech   = flag.String("mech", "hybp", "mechanism under attack")
		iters  = flag.Int("iters", 10000, "PoC iterations (paper: 10000)")
		seed   = flag.Uint64("seed", 2022, "random seed")
		scale  = flag.Float64("scale", 1.0/16, "BPU scale for eviction-set runs (1.0 = paper geometry)")
		trials = flag.Int("trials", 10, "eviction-set attack trials")
	)
	flag.Parse()
	if _, err := sim.ParseMechanism(*mech); err != nil {
		fmt.Fprintf(os.Stderr, "-mech: %v\n", err)
		os.Exit(2)
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hybpattack [flags] "+attacks)
		os.Exit(2)
	}
	names, err := attackList(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	att := hybp.Context{Thread: 0, Priv: hybp.User, ASID: 2}
	vic := hybp.Context{Thread: 1, Priv: hybp.User, ASID: 3}

	newBPU := func(s uint64) hybp.BPU {
		return hybp.NewBPU(hybp.Options{
			Mechanism: hybp.Mechanism(*mech), Threads: 2, Seed: s, Scale: *scale,
		})
	}
	scaledS := int(1024 * *scale)
	if scaledS < 8 {
		scaledS = 8
	}

	run := func(name string) {
		switch name {
		case "ppp":
			fmt.Printf("=== Algorithm 1 (PPP) vs %s, S=%d W=7, %d trials ===\n", *mech, scaledS, *trials)
			wins := 0
			var accSum uint64
			for i := 0; i < *trials; i++ {
				h := hybp.NewAttackHarness(newBPU(*seed+uint64(i)), att, vic)
				x := hybp.Branch{PC: 0x20F00, Target: 0x21000, Taken: true, Kind: hybp.Jump}
				res := hybp.PPP(h, hybp.PPPConfig{S: scaledS, W: 7, Seed: *seed + uint64(i)}, x, nil)
				ok := res.Found && res.Verified
				if ok {
					wins++
					accSum += res.Accesses
				}
				fmt.Printf("trial %2d: found=%v verified=%v accesses=%d\n", i, res.Found, res.Verified, res.Accesses)
			}
			fmt.Printf("success rate: %d/%d", wins, *trials)
			if wins > 0 {
				fmt.Printf(", mean accesses per success: %d (2^%.1f)",
					accSum/uint64(wins), math.Log2(float64(accSum)/float64(wins)))
			}
			fmt.Println()
			if wins > 0 {
				// Extrapolate to the paper geometry via the Section VI-A
				// run-cost model at the measured success probability.
				p := float64(wins) / float64(*trials)
				fmt.Printf("paper-geometry estimate at p=%.2f: 2^%.1f accesses\n",
					p, math.Log2(paperPPPEstimate(p)))
			}
		case "gem":
			fmt.Printf("=== GEM vs %s, S=%d W=7 ===\n", *mech, scaledS)
			h := hybp.NewAttackHarness(newBPU(*seed), att, vic)
			x := hybp.Branch{PC: 0x20F00, Target: 0x21000, Taken: true, Kind: hybp.Jump}
			res := hybp.GEM(h, hybp.PPPConfig{S: scaledS, W: 7, Seed: *seed}, x)
			fmt.Printf("found=%v verified=%v set=%d lines accesses=%d\n",
				res.Found, res.Verified, len(res.EvictionSet), res.Accesses)
		case "blind":
			fmt.Println("=== Blind contention, Equation (1), S=1024 W=7 ===")
			fmt.Printf("P(n=1140) = %.4f (paper quotes ≈12%%)\n", hybp.BlindContentionP(1140, 1024, 7))
			n, p := hybp.BlindContentionOptimum(1024, 7, 8192)
			fmt.Printf("curve crest: P(n=%d) = %.4f\n", n, p)
			perProbe := float64(n) / p
			filtered := perProbe * 16 * 512
			fmt.Printf("expected accesses per probe: %.0f; with L0·L1 filtering: 2^%.1f (paper: ≥2^28)\n",
				perProbe, math.Log2(filtered))
		case "pht":
			fmt.Println("=== PHT reuse, Equation (2), I=13 T=12 C=2 U=1 ===")
			a := hybp.PHTReuseAccesses(13, 12, 2, 1)
			fmt.Printf("accesses per effective Prime-Probe: 2^%.2f (paper: ≈2^28)\n", math.Log2(a))
		case "rsa":
			fmt.Printf("=== RSA square-and-multiply key leak vs %s (Section VI-C victim) ===\n", *mech)
			res := hybp.RSAKeyLeak(newBPU(*seed), att, vic, 512, *seed, hybp.RSAKeyLeakConfig{})
			fmt.Printf("recovered %d/%d exponent bits (%.1f%%; 50%% is chance) in %d attacker accesses\n",
				res.RecoveredBits, res.Bits, 100*res.Accuracy, res.Accesses)
		case "poc":
			fmt.Printf("=== Section VI-D training PoCs vs %s (%d iterations) ===\n", *mech, *iters)
			cfg := hybp.DefaultPoCConfig(*seed)
			cfg.Iterations = *iters
			btb := hybp.BTBTrainingPoC(newBPU(*seed), att, vic, cfg)
			fmt.Printf("BTB training: success %.2f%%  (follow rate %.2f%%)\n",
				100*btb.SuccessRate(), 100*btb.FollowRate())
			pht := hybp.PHTTrainingPoC(newBPU(*seed), att, vic, cfg)
			fmt.Printf("PHT training: success %.2f%%  (follow rate %.2f%%)\n",
				100*pht.SuccessRate(), 100*pht.FollowRate())
		}
		fmt.Println()
	}

	for _, name := range names {
		run(name)
	}
}

// paperPPPEstimate scales the per-run profiling cost to the paper's
// S=1024, W=7 geometry at success probability p.
func paperPPPEstimate(p float64) float64 {
	return 180 * 1024 * 7 / p
}

// Package attack implements the paper's security-evaluation machinery:
// the PPP-inspired eviction-set construction of Algorithm 1, the GEM group
// elimination baseline (Section III-C), the blind-contention analysis of
// Equation (1), the PHT reuse-cost model of Equation (2), and the Section
// VI-D malicious-training proof-of-concept harness.
//
// Attack code interacts with the BPU exclusively through the secure.BPU
// interface — the same surface the pipeline uses — observing only what the
// hardware timing channel exposes: whether the attacker's *own* accesses
// hit, at which latency, and where its speculation would have gone.
package attack

import "math"

// BlindContentionP evaluates the paper's Equation (1): the probability that
// n attacker branch instructions produce a valid (self-conflict-free)
// collision with a victim's target branch in an S-set, W-way randomized
// table.
func BlindContentionP(n, S, W int) float64 {
	p := 1.0 / float64(S)
	sum := 0.0
	for i := 1; i <= W; i++ {
		// C(n, i) p^i (1-p)^(n-i) — computed in log space to survive
		// large n.
		logBinom := lgammaInt(n+1) - lgammaInt(i+1) - lgammaInt(n-i+1)
		logTerm := logBinom + float64(i)*math.Log(p) + float64(n-i)*math.Log(1-p)
		// Probability the i colliding instructions occupy i distinct ways
		// (no self-conflict noise) times the chance a victim access hits
		// a primed way.
		perm := 1.0
		for k := 0; k < i; k++ {
			perm *= float64(W-k) / float64(W)
		}
		sum += math.Exp(logTerm) * perm * float64(i) / float64(W)
	}
	return sum
}

func lgammaInt(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}

// BlindContentionOptimum sweeps n and returns the (n, P) maximizing the
// Equation (1) probability. The paper quotes (n=1140, P≈12%) as the
// maximum for S=1024, W=7; evaluating the printed formula, that point
// indeed gives P≈12.7%, though the curve actually crests slightly higher
// (P≈18%) near n≈2700 — see EXPERIMENTS.md. Either way the expected
// per-probe cost n/P stays in the same few-thousand-access band, and the
// downstream 2^28 conclusion is unchanged.
func BlindContentionOptimum(S, W, nMax int) (bestN int, bestP float64) {
	for n := 1; n <= nMax; n++ {
		if p := BlindContentionP(n, S, W); p > bestP {
			bestN, bestP = n, p
		}
	}
	return bestN, bestP
}

// UpperLevelFilter is the coarse model's L0·L1 filter factor at the
// paper's geometry: blind contention pays it on top of n/P per probe.
const UpperLevelFilter = 16 * 512

// BlindContentionExpectedAccesses is the expected accesses to probe one
// secret bit: n/P at the optimal n, multiplied by the upper-level filter
// factor (the probability the victim's branch even resides in the shared
// last level is 1/(L0·L1) in the paper's coarse model).
func BlindContentionExpectedAccesses(S, W int, l0, l1 int) float64 {
	n, p := BlindContentionOptimum(S, W, 8*S)
	if p == 0 {
		return math.Inf(1)
	}
	return float64(n) / p * float64(l0) * float64(l1)
}

// PHTReuseAccesses evaluates the paper's Equation (2): the average number
// of accesses for an effective Prime-Probe on a randomized TAGE entry,
// 2^(I+T) · (2^C + 2^U + 1), with I the tag-table index width, T the tag
// width, C the counter width, and U the useful-counter width. The paper's
// instance (I=13, T=12, C=2, U=1) gives ≈2^27.8.
func PHTReuseAccesses(I, T, C, U int) float64 {
	return math.Exp2(float64(I+T)) * (math.Exp2(float64(C)) + math.Exp2(float64(U)) + 1)
}

// GEMAccessEstimate is the Section III-C estimate for constructing an
// eviction set on an unprotected BTB with GEM: O(L) retests over L random
// conflicting lines, ≈2^16 accesses for a 7K-entry BTB.
func GEMAccessEstimate(entries int) float64 {
	// GEM eliminates one group per round over ≈L lines with L ≈ a small
	// multiple of the table size; the paper quotes 2^16 for 7K entries,
	// i.e. ≈9.1× the entry count.
	return float64(entries) * 9.1
}

// MultiVictimAccesses models the Section VI-C observation: attacking
// several victim branches in parallel divides the per-secret profiling
// cost, dropping the required accesses from ≈2^28 for one target to ≈2^24
// for sixteen. singleCost is the one-target access bound.
func MultiVictimAccesses(singleCost float64, targets int) float64 {
	if targets < 1 {
		targets = 1
	}
	return singleCost / float64(targets)
}

// SafeVictimBranchLimit inverts MultiVictimAccesses against the key-change
// interval: the number of simultaneously attackable victim branches below
// which the attack still cannot complete inside one key epoch. The paper
// concludes 16 (Section VI-C) for a 2^28 single-target cost and the 2^24
// cycle Linux time slice, and suggests compiler scheduling for victims
// with more secret-dependent branches.
func SafeVictimBranchLimit(singleCost, epochAccesses float64) int {
	if epochAccesses <= 0 {
		return 0
	}
	return int(singleCost / epochAccesses)
}

// PPPAccessEstimate reproduces the Section VI-A arithmetic for HyBP: with
// per-run success probability p (the paper measures ≈1%) and a per-run
// profiling cost of roughly S·W candidates each touched a constant number
// of times plus pruning/binary-search retests, the expected accesses are
// runCost/p. For S=1024, W=7, p=0.01 the paper lands at ≈2^27.
func PPPAccessEstimate(S, W int, perRunAccesses float64, successProb float64) float64 {
	if successProb <= 0 {
		return math.Inf(1)
	}
	if perRunAccesses == 0 {
		// Default per-run cost model, calibrated against the simulated
		// Algorithm 1 (see `hybpexp security`): pruning touches all S·W
		// candidates a few times, and each binary-search level re-tests
		// its group with repeated expectation measurements — ≈180 total
		// touches per candidate for the paper's geometry (≈1.3M accesses
		// per run at S=1024, W=7).
		perRunAccesses = 180 * float64(S*W)
	}
	return perRunAccesses / successProb
}

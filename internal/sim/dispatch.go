package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"hybp/internal/workload"
)

// This file is the name-based experiment dispatcher shared by cmd/hybpexp
// and the hybpd HTTP API: one table of experiment names, one scale parser,
// and one Runner.Experiment entry point, so every front end validates and
// runs experiments identically.

// Printable is what every experiment result knows how to do: render itself
// as the paper's table or figure rows.
type Printable interface{ Print(w io.Writer) }

// ExperimentNames lists the dispatchable experiments in canonical order —
// the order `hybpexp all` runs them.
func ExperimentNames() []string {
	return []string{
		"table1", "table3", "table6", "fig2", "fig5", "fig6", "fig7", "fig8",
		"tournament", "brb", "seeds", "cost",
	}
}

// ExperimentSecurity names Section VI's security analysis. It stays out of
// ExperimentNames, so `hybpexp all` skips it: its four 10,000-iteration
// PoCs took 36.6 s + 39.7 s serially on a 2-vCPU VM, and make bench, make
// profile and the full chaos run all run `all`.
const ExperimentSecurity = "security"

// ValidExperiments lists every name Experiment dispatches: ExperimentNames,
// then ExperimentSecurity.
func ValidExperiments() []string { return append(ExperimentNames(), ExperimentSecurity) }

// ValidExperiment reports whether name dispatches.
func ValidExperiment(name string) bool { return slices.Contains(ValidExperiments(), name) }

// SeedOnly reports whether experiment name reads only the scale's seed:
// Table III, Section VI and the hardware cost use no cycle budget,
// interval or workload set.
func SeedOnly(name string) bool {
	return name == "table3" || name == "cost" || name == ExperimentSecurity
}

// ScaleNames lists the scale presets ParseScale accepts.
func ScaleNames() []string { return []string{"tiny", "quick", "medium", "full"} }

// ParseScale resolves a preset name to its Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "quick":
		return Quick(), nil
	case "medium":
		return Medium(), nil
	case "full":
		return Full(), nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (valid: %s)", name, strings.Join(ScaleNames(), ", "))
}

// MechanismIDs lists the defense mechanisms MechSpec.Build accepts.
func MechanismIDs() []MechanismID {
	return []MechanismID{MechBaseline, MechFlush, MechPartition, MechReplication, MechBRB, MechHyBP}
}

// ParseMechanism resolves a mechanism name — the one check every front
// end applies before building a BPU. The error lists the valid names.
func ParseMechanism(name string) (MechanismID, error) {
	ids := MechanismIDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		if string(id) == name {
			return id, nil
		}
		names[i] = string(id)
	}
	return "", fmt.Errorf("unknown mechanism %q (valid: %s)", name, strings.Join(names, ", "))
}

// Experiment runs one named experiment on the Runner with the front ends'
// shared per-experiment defaults (Table III's 200 PoC iterations, Section
// VI's 10,000, Figure 8's overhead sweep, the quadratic sweeps' four-
// benchmark cap). nil benches and mixes select the paper's full sets.
// Unknown names are an error, not a panic, so servers can surface them to
// remote clients; so is a scale that fails Validate, and a failed attack
// trial, whose zero result would otherwise read as "Defend". Other
// experiments render failed points as zeros and leave the failure to the
// harness's FirstErr.
func (r *Runner) Experiment(name string, sc Scale, benches []string, mixes []workload.Mix) (Printable, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(benches) == 0 {
		benches = workload.FigureApps()
	}
	if len(mixes) == 0 {
		mixes = workload.Mixes()
	}
	switch name {
	case "table1":
		return r.Table1(sc, benches, mixes), nil
	case "table3":
		t, err := r.Table3(Table3Config{Iterations: 200, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		return t, nil
	case ExperimentSecurity:
		s, err := r.Security(Table3Config{Iterations: 10000, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		return s, nil
	case "table6":
		return r.Table6(sc, capN(benches, 4), nil), nil
	case "fig2":
		return r.Fig2(sc, benches), nil
	case "fig5":
		return r.Fig5(sc, benches), nil
	case "fig6":
		return r.Fig6(sc, benches), nil
	case "fig7":
		return r.Fig7(sc, mixes), nil
	case "fig8":
		return r.Fig8(sc, capN(mixes, 3), []float64{0, 0.5, 1.0, 2.4, 3.0}), nil
	case "tournament":
		return r.Tournament(sc, benches), nil
	case "brb":
		return r.BRBComparison(sc, capN(benches, 4)), nil
	case "seeds":
		return r.MultiSeed(sc, benches[0], 5), nil
	case "cost":
		return costPrintable{HardwareCost(sc.Seed)}, nil
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(ValidExperiments(), ", "))
}

// ExecutePoint decodes one canonical spec off the wire — a PointSpec or a
// Section VI PoCSpec, told apart by Kind — and runs it, returning the
// result's JSON encoding: the cluster worker's execution entry point.
// Because a job is a pure function of its spec (seeds derive from the
// spec's root seed and names, never from scheduling), the returned bytes
// are identical to what the coordinator would have produced executing the
// same job in-process; the work API's checksum envelope and the disk cache
// both bind exactly these bytes.
func ExecutePoint(spec json.RawMessage) (json.RawMessage, error) {
	j, err := decodeSpec(spec)
	if err != nil {
		return nil, err
	}
	return j.execute()
}

// wireSpec is a decoded, validated spec ready to run.
type wireSpec interface {
	// canon is the spec's canonical JSON encoding.
	canon() []byte
	// execute runs the job and encodes its result.
	execute() (json.RawMessage, error)
}

// decodeSpec is ExecutePoint's decode-and-validate step. Remote workers
// read specs off the network, so every malformed or unknown spec is a
// *SpecError, never a panic in the simulator.
func decodeSpec(raw json.RawMessage) (wireSpec, error) {
	var head struct{ Kind string }
	if err := json.Unmarshal(raw, &head); err != nil {
		return nil, specErrorf("bad point spec: %v", err)
	}
	switch head.Kind {
	case PointPoC, PointPPP, PointGEM, PointRSA:
		return decodeAs[PoCSpec](raw)
	}
	return decodeAs[PointSpec](raw)
}

func decodeAs[T interface {
	wireSpec
	validate() error
}](raw json.RawMessage) (wireSpec, error) {
	var sp T
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, specErrorf("bad point spec: %v", err)
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

func (sp PointSpec) execute() (json.RawMessage, error) {
	if sp.Kind == PointSMT {
		return json.Marshal(sp.run())
	}
	return json.Marshal(sp.runThread())
}

func (c PoCSpec) execute() (json.RawMessage, error) {
	switch c.Kind {
	case PointPPP, PointGEM:
		return json.Marshal(c.evictionSet())
	case PointRSA:
		return json.Marshal(c.rsa())
	}
	return json.Marshal(c.run())
}

// SpecError reports a job spec that does not decode or cannot run.
type SpecError struct{ msg string }

func (e *SpecError) Error() string { return "sim: " + e.msg }

func specErrorf(format string, args ...any) error {
	return &SpecError{msg: fmt.Sprintf(format, args...)}
}

// costPrintable adapts the hardware-cost report to Printable. The
// CostResult stays embedded untagged so the JSON shape matches what the
// pre-dispatcher hybpexp -json emitted.
type costPrintable struct {
	CostResult
}

func (c costPrintable) Print(w io.Writer) { PrintCost(w, c.CostResult) }

// capN limits the sweep experiments whose cost is quadratic in scope.
func capN[T any](xs []T, n int) []T {
	if len(xs) > n {
		return xs[:n]
	}
	return xs
}

package sim

import (
	"encoding/json"
	"fmt"
	"io"
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

// ValidExperiment reports whether name dispatches.
func ValidExperiment(name string) bool {
	for _, n := range ExperimentNames() {
		if n == name {
			return true
		}
	}
	return false
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
// shared per-experiment defaults (Table III's 200 iterations, Figure 8's
// overhead sweep, the quadratic sweeps' four-benchmark cap). nil benches
// and mixes select the paper's full sets. Unknown names are an error, not
// a panic, so servers can surface them to remote clients.
func (r *Runner) Experiment(name string, sc Scale, benches []string, mixes []workload.Mix) (Printable, error) {
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
		return Table3(Table3Config{Iterations: 200, Seed: sc.Seed}), nil
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
	return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(ExperimentNames(), ", "))
}

// ExecutePoint decodes one canonical PointSpec off the wire and runs it,
// returning the result's JSON encoding — the cluster worker's execution
// entry point. Because a point is a pure function of its spec (seeds
// derive from RootSeed and benchmark names, never from scheduling), the
// returned bytes are identical to what the coordinator would have produced
// executing the same point in-process; the work API's checksum envelope
// and the disk cache both bind exactly these bytes.
func ExecutePoint(spec json.RawMessage) (json.RawMessage, error) {
	var sp PointSpec
	if err := json.Unmarshal(spec, &sp); err != nil {
		return nil, fmt.Errorf("sim: bad point spec: %w", err)
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	if sp.Kind == PointSMT {
		return json.Marshal(sp.run())
	}
	return json.Marshal(sp.runThread())
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

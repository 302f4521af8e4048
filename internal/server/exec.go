package server

import (
	"encoding/json"

	"hybp/internal/pipeline"
	"hybp/internal/sim"
	"hybp/internal/workload"
)

// executeSim runs one normalized simulation point: the requested mechanism
// and the unprotected baseline over identical workload streams, both as
// content-addressed jobs on the shared harness (sim.Runner.Versus, the
// same call hybpsim makes). Two clients asking for the same point — or two
// points sharing a baseline — therefore simulate once; against a warm
// cache directory, zero times.
func (s *Server) executeSim(req SimRequest) (any, error) {
	sc := sim.Scale{
		MaxCycles:       req.Cycles,
		WarmupCycles:    req.Warmup,
		Intervals:       []uint64{req.Interval},
		DefaultInterval: req.Interval,
		Seed:            req.Seed,
	}
	mr, br, err := s.sim.Versus(sc, req.Bench, req.Bench2, req.mechSpec(), req.Interval)
	if err != nil {
		return nil, err
	}

	out := SimJobResult{
		Mechanism:             req.Mech,
		Interval:              req.Interval,
		Cycles:                req.Cycles,
		Warmup:                req.Warmup,
		Seed:                  req.Seed,
		ThroughputIPC:         mr.ThroughputIPC(),
		BaselineThroughputIPC: br.ThroughputIPC(),
	}
	for i, tr := range mr.Threads {
		out.Threads = append(out.Threads, simThread([2]string{req.Bench, req.Bench2}[i], tr, br.Threads[i]))
	}
	if out.BaselineThroughputIPC > 0 {
		out.DegradationPct = 100 * (out.BaselineThroughputIPC - out.ThroughputIPC) / out.BaselineThroughputIPC
	}
	return out, nil
}

// simThread bakes one thread's measurement into headline metrics.
func simThread(bench string, mech, base pipeline.ThreadResult) SimThread {
	raw, _ := json.Marshal(mech)
	t := SimThread{
		Bench:       bench,
		IPC:         mech.IPC(),
		MPKI:        mech.MPKI(),
		Accuracy:    mech.Accuracy(),
		BaselineIPC: base.IPC(),
		Raw:         raw,
	}
	if t.BaselineIPC > 0 {
		t.DegradationPct = 100 * (t.BaselineIPC - t.IPC) / t.BaselineIPC
	}
	return t
}

// capBenches and capMixes resolve the experiment nbench/nmix limits to the
// benchmark and mix slices the dispatcher expects (nil = full sets).
func capBenches(n int) []string {
	apps := workload.FigureApps()
	if n > 0 && n < len(apps) {
		return apps[:n]
	}
	return nil
}

func capMixes(n int) []workload.Mix {
	mixes := workload.Mixes()
	if n > 0 && n < len(mixes) {
		return mixes[:n]
	}
	return nil
}

// Command hybpexp regenerates the paper's tables and figures (DESIGN.md §3
// maps each to its experiment). Output is the same rows/series the paper
// reports; EXPERIMENTS.md records a reference run.
//
// Experiments execute on the internal/harness job runner: every simulation
// point is a content-addressed job, scheduled across -j workers,
// deduplicated across experiments (a baseline shared by Table I and
// Figure 6 is simulated once), and — with -cachedir — memoized on disk so
// an interrupted or repeated run resumes instead of recomputing. Results
// are bit-identical for any -j value.
//
// Usage:
//
//	hybpexp [-scale tiny|quick|medium|full] [-nbench N] [-nmix N] [-intervals list] \
//	        [-j N] [-cachedir DIR] [-progress] [-json] [-faults SPEC] \
//	        [-worklisten ADDR [-minworkers N] [-leasettl D]] \
//	        table1|table3|table6|fig2|fig5|fig6|fig7|fig8|tournament|brb|seeds|cost|security|all
//
// all runs every experiment but security (Section VI), which runs by name.
//
// -worklisten turns the run into a cluster coordinator: hybpworker
// processes lease sim points over the work API and results come back
// bit-identical to a local run (see internal/cluster). -j then bounds
// concurrently outstanding offers, so raise it well above one machine's
// cores when the fleet is larger.
//
// -faults injects a deterministic fault schedule (see internal/faults) for
// chaos testing: worker panics, transient errors, cache corruption, torn
// writes. The harness self-heals — retries with backoff, quarantines bad
// cache entries — so results stay bit-identical to a fault-free run; the
// stats record reports how much healing happened.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hybp/internal/cluster"
	"hybp/internal/faults"
	"hybp/internal/harness"
	"hybp/internal/obs"
	"hybp/internal/sim"
	"hybp/internal/workload"
)

var usage = "usage: hybpexp [flags] " + strings.Join(append(sim.ValidExperiments(), "all"), "|")

func main() {
	var (
		scaleName = flag.String("scale", "medium", "experiment scale: tiny|quick|medium|full")
		seed      = flag.Uint64("seed", 2022, "random seed")
		nbench    = flag.Int("nbench", 0, "limit per-application experiments to the first N figure apps (0 = all)")
		nmix      = flag.Int("nmix", 0, "limit SMT experiments to the first N Table V mixes (0 = all)")
		intervals = flag.String("intervals", "", "comma-separated context-switch intervals in cycles (overrides the scale's sweep)")
		cycles    = flag.Uint64("cycles", 0, "override the scale's per-point cycle budget")
		warmup    = flag.Uint64("warmup", 0, "override the scale's warmup cycles")
		jobs      = flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
		cacheDir  = flag.String("cachedir", "", "on-disk result cache directory (dedupes across runs; makes interrupted runs resumable)")
		progress  = flag.Bool("progress", true, "report job progress (done/total, cache hits, ETA) to stderr")
		jsonOut   = flag.Bool("json", false, "emit machine-readable JSON results to stdout instead of tables")
		stats     = flag.Bool("stats", false, "emit a final harness-stats record (jobs submitted/deduped/executed) to stderr as JSON")
		faultSpec = flag.String("faults", "", "deterministic fault-injection spec for chaos testing, e.g. seed=7,exec.panic=0.1,cache.corrupt=0.2,crashafter=20")
		workAddr  = flag.String("worklisten", "", "serve the cluster work API on this address (e.g. 127.0.0.1:0) and offer every sim point to hybpworker processes; results stay bit-identical to a local run")
		minWork   = flag.Int("minworkers", 1, "with -worklisten, wait for this many worker registrations (up to 30s) before offering jobs, so a sweep doesn't race its own fleet to the queue")
		leaseTTL  = flag.Duration("leasettl", 15*time.Second, "with -worklisten, the work-item lease TTL before a crashed worker's items are reassigned")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceFile = flag.String("tracefile", "", "write a Chrome trace-event JSON timeline of the run to this file (open in Perfetto / chrome://tracing); with -worklisten, worker spans are stitched into the same trace")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	sc, err := sim.ParseScale(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.Seed = *seed
	if *cycles > 0 {
		sc.MaxCycles = *cycles
	}
	if *warmup > 0 {
		sc.WarmupCycles = *warmup
	}
	if *intervals != "" {
		if strings.TrimSpace(*intervals) == "" {
			fmt.Fprintln(os.Stderr, "-intervals is blank: pass a comma-separated list of cycle counts, e.g. -intervals 256000,16000000")
			os.Exit(2)
		}
		sc.Intervals = nil
		for _, f := range strings.Split(*intervals, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad interval %q: %v\n", f, err)
				os.Exit(2)
			}
			sc.Intervals = append(sc.Intervals, v)
		}
		if len(sc.Intervals) == 0 {
			fmt.Fprintln(os.Stderr, "-intervals parsed to an empty sweep")
			os.Exit(2)
		}
		sc.DefaultInterval = sc.Intervals[len(sc.Intervals)-1]
	}
	if err := sc.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "-cycles/-warmup: %v\n", err)
		os.Exit(2)
	}

	benches := workload.FigureApps()
	if *nbench > 0 && *nbench < len(benches) {
		benches = benches[:*nbench]
	}
	mixes := workload.Mixes()
	if *nmix > 0 && *nmix < len(mixes) {
		mixes = mixes[:*nmix]
	}

	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	// Validate every requested experiment before running any: an unknown
	// name at position five must not cost four experiments of wall clock.
	var names []string
	for _, name := range flag.Args() {
		if name == "all" {
			names = append(names, sim.ExperimentNames()...)
			continue
		}
		if !sim.ValidExperiment(name) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s, all)\n",
				name, strings.Join(sim.ValidExperiments(), ", "))
			os.Exit(2)
		}
		names = append(names, name)
	}

	var progw io.Writer
	if *progress {
		progw = os.Stderr
	}
	inj, err := faults.Parse(*faultSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-faults: %v\n", err)
		os.Exit(2)
	}
	hopts := harness.Options{Workers: *jobs, CacheDir: *cacheDir, Progress: progw, Faults: inj}
	// -tracefile records every harness job, retry attempt, cache write,
	// remote offer, and (via result uploads) worker execution as spans under
	// one per-run sweep root, exported as Chrome trace-event JSON at exit.
	var (
		tracer    *obs.Tracer
		sweepSpan *obs.Span
	)
	if *traceFile != "" {
		tracer = obs.NewTracer("hybpexp", 1<<16)
		hopts.Tracer = tracer
		hopts.TraceCtx, sweepSpan = tracer.StartRoot("sweep")
		sweepSpan.SetString("scale", *scaleName)
	}
	var coord *cluster.Coordinator
	if *workAddr != "" {
		coord = cluster.NewCoordinator(cluster.Options{
			LeaseTTL:   *leaseTTL,
			MinWorkers: *minWork,
			Tracer:     tracer,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		mux := http.NewServeMux()
		coord.Mount(mux)
		ln, err := net.Listen("tcp", *workAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-worklisten: %v\n", err)
			os.Exit(2)
		}
		// Parseable by scripts that need the resolved port of :0.
		fmt.Fprintf(os.Stderr, "hybpexp: work API listening on %s\n", ln.Addr())
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = srv.Serve(ln) }()
		defer srv.Close()
		defer coord.Close()
		hopts.Remote = coord
	}
	h, err := harness.New(hopts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "harness: %v\n", err)
		os.Exit(2)
	}
	r := sim.NewRunner(h)
	defer r.Close()

	// Buffer stdout but flush after every experiment: streaming consumers
	// (hybpd tailing a child run, tail -f, a pipe into jq) must see each
	// JSON line — and each table — the moment it is complete, not when the
	// process exits.
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	enc := json.NewEncoder(out)

	// run renders one experiment. Every name was validated above, so an
	// error is a job that exhausted its retries.
	run := func(name string) error {
		start := time.Now()
		// -j changes no output, so the header leaves it out, and the
		// experiments that read only the seed print only the seed: a
		// record regenerated on another host or at another scale keeps
		// their headers.
		if !*jsonOut {
			if sim.SeedOnly(name) {
				fmt.Fprintf(out, "=== %s (seed %d) ===\n", name, sc.Seed)
			} else {
				fmt.Fprintf(out, "=== %s (scale %s, %d apps, %d mixes) ===\n", name, *scaleName, len(benches), len(mixes))
			}
		}
		res, err := r.Experiment(name, sc, benches, mixes)
		if err != nil {
			return err
		}
		if *jsonOut {
			if err := enc.Encode(jsonRecord{
				Experiment: name,
				Scale:      *scaleName,
				Seed:       sc.Seed,
				Seconds:    time.Since(start).Seconds(),
				Result:     res,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "json: %v\n", err)
				os.Exit(1)
			}
			flush(out)
			return nil
		}
		res.Print(out)
		fmt.Fprintf(out, "(%s in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
		flush(out)
		return nil
	}

	// dumpTrace closes the sweep span and writes the Chrome trace; called on
	// both exit paths (os.Exit skips defers).
	dumpTrace := func() {
		if tracer == nil {
			return
		}
		sweepSpan.End()
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-tracefile: %v\n", err)
			return
		}
		werr := obs.WriteChromeTrace(f, tracer.Snapshot())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(os.Stderr, "-tracefile: %v\n", werr)
			return
		}
		fmt.Fprintf(os.Stderr, "hybpexp: wrote trace (%d spans, %d evicted) to %s\n",
			tracer.Len(), tracer.Evicted(), *traceFile)
	}

	for _, name := range names {
		// A job that exhausted its retries produced a zero-value point; the
		// rendered experiment is wrong. Fail loudly rather than emit it as
		// if it were science.
		err := run(name)
		if err == nil {
			err = h.FirstErr()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: job failed after retries: %v\n", name, err)
			dumpTrace()
			printStats(h, coord, *stats)
			os.Exit(1)
		}
	}
	dumpTrace()
	printStats(h, coord, *stats)
}

// printStats emits the parseable stats line on stderr (stdout carries
// results): the bench harness reads jobs submitted/deduped/executed from
// here, the chaos test reads retries/panics/quarantines, the cluster
// chaos test reads per-worker lease/expiry/reassignment counters.
func printStats(h *harness.Runner, coord *cluster.Coordinator, enabled bool) {
	if !enabled {
		return
	}
	rec := struct {
		Stats   harness.Stats            `json:"stats"`
		Cluster *cluster.MetricsSnapshot `json:"cluster,omitempty"`
	}{Stats: h.Stats()}
	if coord != nil {
		snap := coord.Metrics()
		rec.Cluster = &snap
	}
	if err := json.NewEncoder(os.Stderr).Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "stats: %v\n", err)
	}
}

// flush forwards buffered output immediately; a failed flush (closed pipe)
// is fatal rather than silent.
func flush(out *bufio.Writer) {
	if err := out.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "stdout: %v\n", err)
		os.Exit(1)
	}
}

// jsonRecord is one -json output line (JSON-lines framing: one experiment
// per line, so a partial run is still parseable; each line is flushed as
// it is produced).
type jsonRecord struct {
	Experiment string  `json:"experiment"`
	Scale      string  `json:"scale"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Result     any     `json:"result"`
}

// Command hybpload is a closed-loop load generator for hybpd: N concurrent
// clients submit a mixed workload of simulation (and optionally experiment)
// jobs, wait for each to finish, and report throughput, latency percentiles
// (p50/p95/p99), dedup effectiveness, and the server's cache behavior —
// the repo's service-level benchmark.
//
// The job pool is deterministic: job i draws bench i mod -poolbench and
// mechanism i mod len(mechs), so a run with -n much larger than the pool
// demonstrates content-addressed dedup (executed jobs < submitted jobs),
// and a second run against a -cachedir server demonstrates the warm cache
// (zero simulations executed).
//
// Example:
//
//	hybpd -addr :8080 -cachedir /tmp/hybpd-cache &
//	hybpload -addr http://127.0.0.1:8080 -clients 8 -n 64
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybp/internal/harness"
	"hybp/internal/obs"
	"hybp/internal/server"
	"hybp/internal/server/client"
	"hybp/internal/sim"
	"hybp/internal/workload"
)

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8080", "hybpd base URL")
		clients   = flag.Int("clients", 8, "concurrent closed-loop clients")
		n         = flag.Int("n", 64, "total jobs to submit")
		poolB     = flag.Int("poolbench", 6, "distinct benchmarks in the job pool")
		cycles    = flag.Uint64("cycles", 1_200_000, "per-job simulated cycles (small: this measures the service, not the sims)")
		warmup    = flag.Uint64("warmup", 200_000, "per-job warmup cycles")
		interval  = flag.Uint64("interval", 400_000, "context-switch interval")
		seed      = flag.Uint64("seed", 2022, "simulation seed")
		expEvery  = flag.Int("exp-every", 0, "make every Nth job a quick experiment job (0 = sims only)")
		expNames  = flag.String("experiments", "cost,table3", "comma-separated experiment names -exp-every draws from")
		timeout   = flag.Duration("timeout", 10*time.Minute, "overall deadline")
		retries   = flag.Int("retries", 8, "per-call retry bound for 429/5xx/transport failures")
		traceFile = flag.String("tracefile", "", "write a Chrome trace-event JSON timeline of the client side of the run to this file (submits, waits; server spans land in hybpd's /debug/trace on the same trace ids)")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := client.New(*addr)
	c.MaxRetries = *retries
	c.Counters = &client.Counters{}
	var (
		tracer   *obs.Tracer
		loadSpan *obs.Span
	)
	if *traceFile != "" {
		tracer = obs.NewTracer("hybpload", 1<<16)
		c.Tracer = tracer
		// ctx carries no span yet, so this opens a new trace root.
		ctx, loadSpan = tracer.Start(ctx, "loadgen")
	}

	if err := c.Ready(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "hybpload: server not ready at %s: %v\n", *addr, err)
		os.Exit(1)
	}
	before, err := c.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpload: metrics: %v\n", err)
		os.Exit(1)
	}

	pool := buildPool(*poolB, *cycles, *warmup, *interval, *seed, *expEvery, splitNames(*expNames))
	fmt.Printf("hybpload: %d jobs, %d clients, %d distinct configs, against %s\n",
		*n, *clients, len(pool), *addr)

	var (
		next      atomic.Int64
		okCount   atomic.Int64
		dedups    atomic.Int64
		failures  atomic.Int64
		mu        sync.Mutex
		latencies []time.Duration
		errs      []string
		errClass  = map[string]int{}    // Classify bucket → terminal-failure count (under mu)
		results   = map[string][]byte{} // job id → final result bytes (under mu)
	)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= *n {
					return
				}
				req := pool[i%len(pool)]
				t0 := time.Now()
				ji, err := c.Run(ctx, req)
				lat := time.Since(t0)
				if err != nil || ji.Status != server.StatusDone {
					failures.Add(1)
					class := client.Classify(err)
					if err == nil {
						class = "job-failed" // server-side terminal failure, not a transport problem
					}
					msg := fmt.Sprintf("job %d: status=%s err=%v", i, ji.Status, err)
					mu.Lock()
					errClass[class]++
					if len(errs) < 5 {
						errs = append(errs, msg)
					}
					mu.Unlock()
					continue
				}
				okCount.Add(1)
				if ji.Deduped {
					dedups.Add(1)
				}
				mu.Lock()
				latencies = append(latencies, lat)
				results[ji.ID] = ji.Result
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := c.Metrics(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpload: metrics: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("done in %s: %d ok, %d failed\n", elapsed.Round(time.Millisecond), okCount.Load(), failures.Load())
	if len(errClass) > 0 {
		var parts []string
		for _, k := range []string{"429", "5xx", "timeout", "conn-reset", "job-failed", "other"} {
			if n := errClass[k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s=%d", k, n))
			}
		}
		fmt.Printf("failure breakdown: %s\n", strings.Join(parts, " "))
	}
	if t := c.Counters.Total(); t > 0 {
		fmt.Printf("client retries: %d total (429=%d 5xx=%d transport=%d) — all healed before the counts above\n",
			t, c.Counters.Retries429.Load(), c.Counters.Retries5xx.Load(), c.Counters.RetriesTransport.Load())
	}
	for _, e := range errs {
		fmt.Printf("  error: %s\n", e)
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		fmt.Printf("throughput %.1f jobs/s; latency p50=%s p95=%s p99=%s max=%s\n",
			float64(okCount.Load())/elapsed.Seconds(),
			pct(latencies, 50), pct(latencies, 95), pct(latencies, 99),
			latencies[len(latencies)-1].Round(time.Millisecond))
	}
	sd := after.Server
	hd := delta(before.Harness, after.Harness)
	fmt.Printf("server this run: %d submitted, %d deduped to existing jobs, %d client-observed dedups\n",
		sd.JobsSubmitted-before.Server.JobsSubmitted,
		sd.JobsDeduped-before.Server.JobsDeduped, dedups.Load())
	fmt.Printf("harness this run: %d sim jobs submitted, %d deduped, %d executed, %d disk-cache hits\n",
		hd.Submitted, hd.Deduped, hd.Executed, hd.DiskHits)
	if hd.Retries+hd.Panics+hd.Quarantines+hd.Failed > 0 {
		fmt.Printf("harness healing this run: %d retries, %d panics recovered, %d cache quarantines, %d jobs failed\n",
			hd.Retries, hd.Panics, hd.Quarantines, hd.Failed)
	}
	if sd.PanicsRecovered-before.Server.PanicsRecovered > 0 || sd.JobsShed-before.Server.JobsShed > 0 {
		fmt.Printf("server healing this run: %d panics recovered, %d experiment jobs shed under load\n",
			sd.PanicsRecovered-before.Server.PanicsRecovered, sd.JobsShed-before.Server.JobsShed)
	}
	// The results digest hashes every distinct job's final result bytes in
	// job-id order — two runs against equivalent state (warm cache, journal
	// recovery, a restarted daemon) must print the same line, making
	// bit-identical-across-restart checkable with grep and diff.
	if len(results) > 0 {
		ids := make([]string, 0, len(results))
		for id := range results {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var blob []byte
		for _, id := range ids {
			blob = append(blob, id...)
			blob = append(blob, results[id]...)
		}
		fmt.Printf("results digest: %s over %d distinct jobs\n", harness.Checksum(blob), len(ids))
	}
	if jd := after.Journal; jd != nil {
		fmt.Printf("journal: %d records appended, %d fsyncs, %d segments on disk (%d compacted away), %d append errors\n",
			jd.Appended, jd.Fsyncs, jd.Segments, jd.Compacted, jd.AppendErrors)
		if rec := jd.Recovery; rec.Epoch > 0 {
			verdict := "all state survived the restart"
			if rec.Dropped > 0 {
				verdict = fmt.Sprintf("%d jobs lost their request and need client resubmission", rec.Dropped)
			}
			fmt.Printf("restart survival: epoch %d — %d jobs recovered (%d results intact, %d resumed); %s\n",
				rec.Epoch, rec.RecoveredJobs, rec.RestoredTerminal, rec.Resumed, verdict)
		}
	}
	// Simulator-side speed, distinct from request throughput: a dedup- or
	// cache-served run can post high jobs/s while simulating nothing.
	simCycles := after.SimulatedCycles - before.SimulatedCycles
	fmt.Printf("simulator this run: %.1f Mcycles simulated (%.1f Mcycles/s core speed)\n",
		float64(simCycles)/1e6, float64(simCycles)/1e6/elapsed.Seconds())
	switch {
	case hd.Executed == 0 && okCount.Load() > 0:
		fmt.Printf("warm cache: every result served without executing a simulation\n")
	case hd.Executed < hd.Submitted:
		fmt.Printf("dedup: %d of %d simulation points coalesced or cache-hit\n",
			hd.Submitted-hd.Executed, hd.Submitted)
	}
	if tracer != nil {
		loadSpan.End()
		if f, err := os.Create(*traceFile); err != nil {
			fmt.Fprintf(os.Stderr, "hybpload: -tracefile: %v\n", err)
		} else {
			werr := obs.WriteChromeTrace(f, tracer.Snapshot())
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(os.Stderr, "hybpload: -tracefile: %v\n", werr)
			} else {
				fmt.Printf("wrote trace (%d spans) to %s\n", tracer.Len(), *traceFile)
			}
		}
	}
	if failures.Load() > 0 {
		os.Exit(1)
	}
}

// buildPool enumerates the deterministic mixed job pool.
func buildPool(nbench int, cycles, warmup, interval, seed uint64, expEvery int, exps []string) []server.JobRequest {
	benches := workload.FigureApps()
	if nbench > 0 && nbench < len(benches) {
		benches = benches[:nbench]
	}
	mechs := []sim.MechanismID{sim.MechHyBP, sim.MechFlush, sim.MechPartition, sim.MechReplication}
	var pool []server.JobRequest
	size := max(len(benches)*2, 8)
	for i := 0; i < size; i++ {
		if expEvery > 0 && len(exps) > 0 && i%expEvery == expEvery-1 {
			pool = append(pool, server.JobRequest{Experiment: &server.ExperimentRequest{
				Name:   exps[(i/expEvery)%len(exps)],
				Scale:  "quick",
				Seed:   seed,
				NBench: 2,
				NMix:   2,
				Cycles: cycles,
				Warmup: warmup,
			}})
			continue
		}
		pool = append(pool, server.JobRequest{Sim: &server.SimRequest{
			Bench:    benches[i%len(benches)],
			Mech:     string(mechs[i%len(mechs)]),
			Interval: interval,
			Cycles:   cycles,
			Warmup:   warmup,
			Seed:     seed,
		}})
	}
	return pool
}

func splitNames(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// pct is the nearest-rank percentile of sorted latencies.
func pct(sorted []time.Duration, p int) time.Duration {
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx].Round(time.Millisecond)
}

// delta subtracts two harness snapshots, isolating this run's work.
// RetryBudgetLeft is a level, not a counter, so the after value stands.
func delta(before, after harness.Stats) harness.Stats {
	return harness.Stats{
		Submitted:       after.Submitted - before.Submitted,
		Deduped:         after.Deduped - before.Deduped,
		Executed:        after.Executed - before.Executed,
		DiskHits:        after.DiskHits - before.DiskHits,
		Completed:       after.Completed - before.Completed,
		Retries:         after.Retries - before.Retries,
		Panics:          after.Panics - before.Panics,
		Quarantines:     after.Quarantines - before.Quarantines,
		Failed:          after.Failed - before.Failed,
		RetryBudgetLeft: after.RetryBudgetLeft,
	}
}

// Command hybptrace records, inspects, and replays branch traces in the
// HYBPTRC1 format (internal/trace). Traces make cross-mechanism
// comparisons exactly trace-equal and let external workloads drive the
// simulator.
//
// Usage:
//
//	hybptrace record -bench gcc -n 2000000 -o gcc.trc
//	hybptrace info gcc.trc
//	hybptrace replay -mech hybp -cycles 8000000 gcc.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"hybp"
	"hybp/internal/secure"
	"hybp/internal/sim"
	"hybp/internal/trace"
	"hybp/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hybptrace record|info|replay [flags]")
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	bench := fs.String("bench", "gcc", "benchmark to record")
	n := fs.Int("n", 1_000_000, "events to record")
	out := fs.String("o", "", "output file (required)")
	seed := fs.Uint64("seed", 2022, "generator seed")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "record: -o is required")
		os.Exit(2)
	}
	prof := workload.Get(*bench)
	gen := workload.New(prof, *seed)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, trace.Header{
		BaseCPIMilli: uint64(prof.BaseCPI * 1000),
		BranchEvery:  uint64(prof.BranchEvery),
		Events:       uint64(*n),
	})
	if err != nil {
		fatal(err)
	}
	if err := trace.Record(w, gen, *n); err != nil {
		fatal(err)
	}
	st, _ := f.Stat()
	fmt.Printf("recorded %d events of %s to %s (%.1f MB, %.2f bytes/event)\n",
		*n, *bench, *out, float64(st.Size())/1e6, float64(st.Size())/float64(*n))
}

func info(args []string) {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "info: one trace file required")
		os.Exit(2)
	}
	f, err := os.Open(args[0])
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	h := r.Header()
	var events, taken, cond, calls, rets, indirect, kernel uint64
	instr := uint64(0)
	for {
		ev, err := r.ReadEvent()
		if err != nil {
			break
		}
		events++
		instr += uint64(ev.Gap) + 1
		if ev.Branch.Taken {
			taken++
		}
		switch ev.Branch.Kind {
		case secure.Cond:
			cond++
		case secure.Call:
			calls++
		case secure.Return:
			rets++
		case secure.Indirect:
			indirect++
		}
		if ev.Priv == hybp.Kernel {
			kernel++
		}
	}
	fmt.Printf("header: baseCPI=%.3f branchEvery=%d declaredEvents=%d\n",
		float64(h.BaseCPIMilli)/1000, h.BranchEvery, h.Events)
	fmt.Printf("events: %d (%d instructions, %.1f instr/branch)\n",
		events, instr, float64(instr)/float64(events))
	fmt.Printf("taken: %.1f%%  cond: %.1f%%  calls: %.1f%%  returns: %.1f%%  indirect: %.1f%%  kernel: %.1f%%\n",
		pct(taken, events), pct(cond, events), pct(calls, events),
		pct(rets, events), pct(indirect, events), pct(kernel, events))
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	mech := fs.String("mech", "hybp", "mechanism")
	cycles := fs.Uint64("cycles", 8_000_000, "simulated cycles")
	interval := fs.Uint64("interval", 0, "context-switch interval (0 disables)")
	loop := fs.Bool("loop", true, "restart the trace when exhausted")
	fs.Parse(args)
	if _, err := sim.ParseMechanism(*mech); err != nil {
		fmt.Fprintf(os.Stderr, "replay: -mech: %v\n", err)
		os.Exit(2)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "replay: one trace file required")
		os.Exit(2)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		fatal(err)
	}
	events, err := r.ReadAll()
	if err != nil {
		fatal(err)
	}
	src := trace.NewReplayer(fs.Arg(0), r.Header(), events, *loop)
	res := hybp.Simulate(hybp.SimConfig{
		Core:           hybp.DefaultCoreConfig(),
		BPU:            hybp.NewBPU(hybp.Options{Mechanism: hybp.Mechanism(*mech), Threads: 1, Seed: 1}),
		Threads:        []hybp.ThreadSpec{{Source: src, Seed: 1}},
		SwitchInterval: *interval,
		MaxCycles:      *cycles,
	})
	tr := res.Threads[0]
	fmt.Printf("replayed %d/%d events through %s: IPC=%.4f MPKI=%.2f accuracy=%.2f%%\n",
		src.Position(), src.Len(), *mech, tr.IPC(), tr.MPKI(), 100*tr.Accuracy())
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

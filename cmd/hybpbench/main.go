// Command hybpbench is the repo's perf-tracking harness: it runs the
// per-package micro-benchmarks plus timed cold `hybpexp -scale quick all`
// runs at -j 1 and -j 2 and a warm rerun, and emits a machine-readable JSON report
// (BENCH_PR3.json) so performance across PRs is a recorded artifact, not
// folklore.
//
// Modes:
//
//	hybpbench -out BENCH_PR3.json            full run: benchmarks at -benchtime,
//	                                         then cold (-j 1, -j 2) and warm
//	                                         hybpexp wall-clock
//	hybpbench -smoke                         1-iteration benchmarks only, no
//	                                         experiment timing (the CI gate that
//	                                         keeps bench code from rotting)
//	hybpbench -baseline BENCH_PR3.json       compare mode: rerun the benchmarks
//	                                         and print a regression table of
//	                                         ns/op, B/op, allocs/op against the
//	                                         pinned report; -strict exits
//	                                         nonzero on >10% ns/op regressions
//	hybpbench -out BENCH_PR8.json -baseline BENCH_PR7.json
//	                                         both: the regression table, then
//	                                         a full report whose baseline block
//	                                         (cold seconds, StepHyBP ns/op) is
//	                                         read from the pinned report
//
// Each benchmark runs -reps times (default 3, via go test -count) and the
// report records the per-metric median, so one noisy scheduler quantum can't
// trip the -strict gate — single-run compares flagged spurious >10% swings
// (see EXPERIMENTS.md, "Tracing overhead"). -smoke keeps a single iteration:
// its job is compile-and-parse coverage, not stable numbers.
//
// The experiment run is content-hashed (FNV-1a over the JSON output with
// the wall-clock "seconds" fields stripped), so two reports are
// bit-identical iff their digests match — the guard the PR-3 optimization
// work was measured against. The cold -j 2 run and the warm rerun must
// match the cold -j 1 output, or the run fails.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// benchPackages are the packages whose benchmarks feed the report; they
// cover every layer of the per-cycle hot path.
var benchPackages = []string{
	"./internal/tage",
	"./internal/btb",
	"./internal/secure",
	"./internal/pipeline",
	"./internal/keys",
	"./internal/cipher",
	"./internal/workload",
}

// report is the BENCH_*.json schema.
type report struct {
	GeneratedAt string       `json:"generated_at"`
	GoVersion   string       `json:"go_version"`
	GOARCH      string       `json:"goarch"`
	Benchmarks  []benchEntry `json:"benchmarks"`
	Experiment  *expTiming   `json:"experiment,omitempty"`
	Baseline    *baseline    `json:"baseline,omitempty"`
}

type benchEntry struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Reps is how many runs the medians were taken over (absent in reports
	// predating the median change, which recorded single runs).
	Reps int `json:"reps,omitempty"`
}

type expTiming struct {
	Command     string  `json:"command"`
	ColdSeconds float64 `json:"cold_seconds"`
	// ColdJ2Seconds times the same cold run at -j 2 (absent in reports
	// that predate it).
	ColdJ2Seconds float64 `json:"cold_j2_seconds,omitempty"`
	WarmSeconds   float64 `json:"warm_seconds,omitempty"`
	JobsExecuted  int64   `json:"jobs_executed"`
	JobsTotal     int64   `json:"jobs_submitted"`
	OutputFNV     string  `json:"output_fnv"`
}

// baseline records the earlier measurements the current numbers are
// compared against, derived from the -baseline report by baselineFrom.
type baseline struct {
	ColdSeconds float64 `json:"cold_seconds,omitempty"`
	StepNsPerOp float64 `json:"step_ns_per_op,omitempty"`
	Note        string  `json:"note,omitempty"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_PR3.json", "output report path")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime per benchmark")
		smoke     = flag.Bool("smoke", false, "1-iteration benchmarks, skip experiment timing, discard the report (CI mode)")
		skipExp   = flag.Bool("skipexp", false, "skip the timed hybpexp run (benchmarks only)")
		scale     = flag.String("scale", "quick", "experiment scale for the timed run")
		seed      = flag.Uint64("seed", 2022, "experiment seed")
		baseFile  = flag.String("baseline", "", "compare mode: rerun benchmarks and diff ns/op, B/op, allocs/op against this pinned BENCH_*.json report instead of writing a new one; with -out, also write the new report with this one's cold seconds and step ns/op as its baseline block")
		strict    = flag.Bool("strict", false, "with -baseline, exit nonzero when any benchmark regresses more than 10% in ns/op")
		reps      = flag.Int("reps", 3, "runs per benchmark (go test -count); the report records per-metric medians")
	)
	flag.Parse()

	bt := *benchtime
	n := *reps
	if n < 1 {
		n = 1
	}
	if *smoke {
		bt = "1x"
		n = 1
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOARCH:      runtime.GOARCH,
	}
	var base report
	if *baseFile != "" {
		var err error
		if base, err = loadReport(*baseFile); err != nil {
			fmt.Fprintf(os.Stderr, "hybpbench: -baseline: %v\n", err)
			os.Exit(1)
		}
		rep.Baseline = baselineFrom(*baseFile, base)
	}

	for _, pkg := range benchPackages {
		entries, err := runBench(pkg, bt, n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybpbench: %s: %v\n", pkg, err)
			os.Exit(1)
		}
		rep.Benchmarks = append(rep.Benchmarks, entries...)
	}
	fmt.Fprintf(os.Stderr, "hybpbench: %d benchmarks across %d packages (median of %d run(s))\n",
		len(rep.Benchmarks), len(benchPackages), n)

	// Compare mode historically discarded the fresh measurements. When -out
	// is ALSO set explicitly, do both: print the regression table against
	// the pinned report, then continue and write the new one — a re-baseline
	// and its provenance in a single run.
	strictFail := false
	if *baseFile != "" {
		regressions, err := compareBaseline(*baseFile, base, rep.Benchmarks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybpbench: -baseline: %v\n", err)
			os.Exit(1)
		}
		strictFail = *strict && regressions > 0
		outSet := false
		flag.Visit(func(f *flag.Flag) { outSet = outSet || f.Name == "out" })
		if !outSet {
			if strictFail {
				fmt.Fprintf(os.Stderr, "hybpbench: ns/op regression(s) above %.0f%% (strict mode)\n",
					regressThresholdPct)
				os.Exit(1)
			}
			return
		}
	}

	if !*smoke && !*skipExp {
		et, err := runExperiment(*scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hybpbench: experiment: %v\n", err)
			os.Exit(1)
		}
		rep.Experiment = et
	}

	if *smoke {
		fmt.Fprintln(os.Stderr, "hybpbench: smoke OK (report discarded)")
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hybpbench: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "hybpbench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "hybpbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hybpbench: wrote %s\n", *out)
	if strictFail {
		fmt.Fprintf(os.Stderr, "hybpbench: ns/op regression(s) above %.0f%% (strict mode)\n",
			regressThresholdPct)
		os.Exit(1)
	}
}

// regressThresholdPct is the ns/op slowdown beyond which -strict fails:
// micro-benchmark noise on shared CI hardware sits well under 10%, real
// hot-path regressions don't.
const regressThresholdPct = 10.0

// loadReport reads a pinned BENCH_*.json report.
func loadReport(path string) (report, error) {
	var r report
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	return r, nil
}

// baselineFrom derives a new report's baseline block from the pinned
// report at path: its cold sweep seconds and its BenchmarkStepHyBP ns/op,
// each left zero when that report did not measure it.
func baselineFrom(path string, r report) *baseline {
	b := &baseline{Note: fmt.Sprintf("%s, generated %s", path, r.GeneratedAt)}
	if r.Experiment != nil {
		b.ColdSeconds = r.Experiment.ColdSeconds
	}
	for _, e := range r.Benchmarks {
		if e.Package == "internal/pipeline" && e.Name == "BenchmarkStepHyBP" {
			b.StepNsPerOp = e.NsPerOp
		}
	}
	return b
}

// compareBaseline diffs the just-measured benchmarks against the pinned
// report base (read from path), prints the regression table, and returns
// how many benchmarks regressed more than regressThresholdPct in ns/op.
func compareBaseline(path string, base report, cur []benchEntry) (int, error) {
	if len(base.Benchmarks) == 0 {
		return 0, fmt.Errorf("%s has no benchmarks to compare against", path)
	}
	baseBy := make(map[string]benchEntry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseBy[e.Package+"/"+e.Name] = e
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\tbase ns/op\tnow ns/op\tΔns/op\tΔB/op\tΔallocs\t\n")
	regressions := 0
	matched := 0
	for _, e := range cur {
		id := e.Package + "/" + e.Name
		be, ok := baseBy[id]
		if !ok {
			fmt.Fprintf(w, "%s\t-\t%.1f\tnew\t\t\t\n", id, e.NsPerOp)
			continue
		}
		matched++
		delete(baseBy, id)
		ns := pctDelta(be.NsPerOp, e.NsPerOp)
		flag := ""
		if ns > regressThresholdPct {
			flag = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%s\t%.1f\t%.1f\t%s\t%s\t%s\t%s\n",
			id, be.NsPerOp, e.NsPerOp,
			fmtPct(ns), fmtPct(pctDelta(be.BytesPerOp, e.BytesPerOp)),
			fmtPct(pctDelta(be.AllocsPerOp, e.AllocsPerOp)), flag)
	}
	for id := range baseBy {
		fmt.Fprintf(w, "%s\t%.1f\t-\tremoved\t\t\t\n", id, baseBy[id].NsPerOp)
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	fmt.Fprintf(os.Stderr, "hybpbench: compared %d benchmarks against %s (generated %s): %d regression(s) > %.0f%% ns/op\n",
		matched, path, base.GeneratedAt, regressions, regressThresholdPct)
	return regressions, nil
}

// pctDelta is the percent change from base to cur; NaN when base is
// unmeasured (zero) so the column renders blank instead of inventing a
// ratio.
func pctDelta(base, cur float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return (cur - base) / base * 100
}

func fmtPct(p float64) string {
	if math.IsNaN(p) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", p)
}

// benchLine matches `BenchmarkX-8  123  456 ns/op  7 B/op  8 allocs/op`
// (the -cpu suffix and the B/op / allocs/op fields are optional).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+([0-9.]+) allocs/op)?`)

// runBench executes one package's benchmarks reps times in a single
// `go test -count=reps` invocation (one compile, interleaved runs) and
// reduces the per-run samples to per-metric medians. The median, not the
// mean, because benchmark noise is one-sided — a descheduled run is slow,
// never fast — so the mean drifts upward with outliers the median ignores.
func runBench(pkg, benchtime string, reps int) ([]benchEntry, error) {
	cmd := exec.Command("go", "test", "-run", "NONE", "-bench", ".",
		"-benchtime", benchtime, "-count", strconv.Itoa(reps), "-benchmem", pkg)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s%s", err, outBuf.String(), errBuf.String())
	}
	type samples struct {
		ns, bytes, allocs []float64
	}
	byName := make(map[string]*samples)
	var order []string // report entries in first-seen (file) order
	sc := bufio.NewScanner(&outBuf)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		s := byName[m[1]]
		if s == nil {
			s = &samples{}
			byName[m[1]] = s
			order = append(order, m[1])
		}
		ns, _ := strconv.ParseFloat(m[2], 64)
		s.ns = append(s.ns, ns)
		if m[3] != "" {
			v, _ := strconv.ParseFloat(m[3], 64)
			s.bytes = append(s.bytes, v)
		}
		if m[4] != "" {
			v, _ := strconv.ParseFloat(m[4], 64)
			s.allocs = append(s.allocs, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	entries := make([]benchEntry, 0, len(order))
	for _, name := range order {
		s := byName[name]
		entries = append(entries, benchEntry{
			Package:     strings.TrimPrefix(pkg, "./"),
			Name:        name,
			NsPerOp:     median(s.ns),
			BytesPerOp:  median(s.bytes),
			AllocsPerOp: median(s.allocs),
			Reps:        len(s.ns),
		})
	}
	return entries, nil
}

// median of a sample set; zero for an empty one (unmeasured metric). Each
// metric is reduced independently — the ns/op median and the B/op median may
// come from different runs, which is fine: the gate compares metrics, not
// runs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// secondsField strips the wall-clock field from hybpexp -json lines so the
// digest covers only simulation results.
var secondsField = regexp.MustCompile(`"seconds":[0-9.eE+-]+,`)

// statsLine matches the final `-stats` record on stderr.
var statsLine = regexp.MustCompile(`\{"stats":.*\}`)

// runExperiment builds hybpexp, times a cold `-j 1` run (no cache), the
// same cold run at `-j 2` and a warm re-run against a fresh cache
// directory, and digests the output; every run must print what the cold
// `-j 1` run printed.
func runExperiment(scale string, seed uint64) (*expTiming, error) {
	tmp, err := os.MkdirTemp("", "hybpbench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "hybpexp")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/hybpexp").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build: %v\n%s", err, out)
	}

	argsAt := func(workers string) []string {
		return []string{
			"-scale", scale, "-seed", strconv.FormatUint(seed, 10),
			"-j", workers, "-progress=false", "-json", "-stats",
		}
	}
	args := argsAt("1")
	et := &expTiming{Command: "hybpexp " + strings.Join(args, " ") + " all"}

	// Cold: no cache directory, every job simulates.
	coldOut, coldErr, coldDur, err := timedRun(bin, append(args, "all")...)
	if err != nil {
		return nil, fmt.Errorf("cold run: %v\n%s", err, coldErr)
	}
	et.ColdSeconds = coldDur.Seconds()
	norm := secondsField.ReplaceAll(coldOut, nil)
	et.OutputFNV = fnvHex(norm)
	if m := statsLine.Find(coldErr); m != nil {
		var rec struct {
			Stats struct {
				Submitted int64 `json:"submitted"`
				Executed  int64 `json:"executed"`
			} `json:"stats"`
		}
		if json.Unmarshal(m, &rec) == nil {
			et.JobsExecuted = rec.Stats.Executed
			et.JobsTotal = rec.Stats.Submitted
		}
	}

	// Cold again on two workers: same jobs, same output.
	j2Out, j2Err, j2Dur, err := timedRun(bin, append(argsAt("2"), "all")...)
	if err != nil {
		return nil, fmt.Errorf("cold -j 2 run: %v\n%s", err, j2Err)
	}
	et.ColdJ2Seconds = j2Dur.Seconds()
	if got := fnvHex(secondsField.ReplaceAll(j2Out, nil)); got != et.OutputFNV {
		return nil, fmt.Errorf("cold -j 2 output FNV %s differs from -j 1's %s", got, et.OutputFNV)
	}

	// Warm: populate a cache dir, then re-run against it.
	cacheDir := filepath.Join(tmp, "cache")
	warmArgs := append(args, "-cachedir", cacheDir, "all")
	if _, e, _, err := timedRun(bin, warmArgs...); err != nil {
		return nil, fmt.Errorf("cache-fill run: %v\n%s", err, e)
	}
	warmOut, warmErr, warmDur, err := timedRun(bin, warmArgs...)
	if err != nil {
		return nil, fmt.Errorf("warm run: %v\n%s", err, warmErr)
	}
	et.WarmSeconds = warmDur.Seconds()
	if !bytes.Equal(secondsField.ReplaceAll(warmOut, nil), norm) {
		return nil, fmt.Errorf("warm-cache output differs from cold output (cache corruption?)")
	}
	return et, nil
}

// fnvHex is the report's output digest: FNV-1a 64 of b, in hex.
func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func timedRun(bin string, args ...string) (stdout, stderr []byte, d time.Duration, err error) {
	cmd := exec.Command(bin, args...)
	var outBuf, errBuf bytes.Buffer
	cmd.Stdout = &outBuf
	cmd.Stderr = &errBuf
	t0 := time.Now()
	err = cmd.Run()
	return outBuf.Bytes(), errBuf.Bytes(), time.Since(t0), err
}

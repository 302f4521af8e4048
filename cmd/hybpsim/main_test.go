package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"hybp/internal/pipeline"
	"hybp/internal/sim"
)

// TestMain lets the tests run the real command: when HYBPSIM_RUN_MAIN is
// set, the test binary behaves as hybpsim itself.
func TestMain(m *testing.M) {
	if os.Getenv("HYBPSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hybpsim runs the command with args and returns its stdout, stderr and
// exit code.
func hybpsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HYBPSIM_RUN_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		code = ee.ExitCode()
	case err != nil:
		t.Fatalf("run hybpsim: %v", err)
	}
	return out.String(), errb.String(), code
}

var (
	threadLine   = regexp.MustCompile(`(?m)^thread \d \((\w+)\): IPC=([0-9.]+) `)
	baselineLine = regexp.MustCompile(`(?m)\(baseline ([0-9.]+),`)
)

// TestPrintsExecutePointNumbers asserts that hybpsim prints exactly what
// the cluster worker's entry point (and so every hybpd sim job) computes
// for the same point: per-thread IPC on the mechanism and the baseline's
// throughput.
func TestPrintsExecutePointNumbers(t *testing.T) {
	const cycles, warmup, interval, seed = 300_000, 60_000, 100_000, 11
	for _, tc := range []struct {
		name string
		args []string
		mech sim.MechanismID
		spec sim.PointSpec
	}{
		{"single", []string{"-bench", "gcc"}, sim.MechHyBP,
			sim.PointSpec{Kind: sim.PointSingle, Bench: "gcc", Interval: interval}},
		{"smt", []string{"-bench", "gcc", "-bench2", "xz"}, sim.MechPartition,
			sim.PointSpec{Kind: sim.PointSMT, A: "gcc", B: "xz", Interval: interval}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-mech", string(tc.mech), "-cycles", fmt.Sprint(cycles),
				"-warmup", fmt.Sprint(warmup), "-interval", fmt.Sprint(interval), "-seed", fmt.Sprint(seed)},
				tc.args...)
			out, errOut, code := hybpsim(t, args...)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut)
			}
			tc.spec.Cycles, tc.spec.Warmup, tc.spec.RootSeed = cycles, warmup, seed
			mech := executePoint(t, tc.spec, sim.Mech(tc.mech))
			base := executePoint(t, tc.spec, sim.Mech(sim.MechBaseline))

			lines := threadLine.FindAllStringSubmatch(out, -1)
			if len(lines) != len(mech.Threads) {
				t.Fatalf("printed %d threads, want %d:\n%s", len(lines), len(mech.Threads), out)
			}
			for i, l := range lines {
				if want := fmt.Sprintf("%.4f", mech.Threads[i].IPC()); l[2] != want {
					t.Errorf("thread %d (%s) IPC=%s, ExecutePoint %s", i, l[1], l[2], want)
				}
			}
			b := baselineLine.FindStringSubmatch(out)
			if want := fmt.Sprintf("%.4f", base.ThroughputIPC()); b == nil || b[1] != want {
				t.Errorf("baseline line %q, ExecutePoint baseline %s:\n%s", b, want, out)
			}
		})
	}
}

// executePoint runs spec on mech through sim.ExecutePoint, returning the
// measurement as a Result (single points as one thread).
func executePoint(t *testing.T, spec sim.PointSpec, mech sim.MechSpec) pipeline.Result {
	t.Helper()
	spec.Mech = mech
	in, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.ExecutePoint(in)
	if err != nil {
		t.Fatalf("ExecutePoint(%s): %v", in, err)
	}
	var res pipeline.Result
	if spec.Kind == sim.PointSMT {
		err = json.Unmarshal(out, &res)
	} else {
		res.Threads = make([]pipeline.ThreadResult, 1)
		err = json.Unmarshal(out, &res.Threads[0])
	}
	if err != nil {
		t.Fatalf("decode %s: %v", out, err)
	}
	return res
}

// TestUnknownMechanism asserts a bad -mech is a one-line usage error that
// names every valid mechanism, not a panic.
func TestUnknownMechanism(t *testing.T) {
	out, errOut, code := hybpsim(t, "-mech", "bogus")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, errOut)
	}
	if out != "" || strings.Count(strings.TrimSpace(errOut), "\n") != 0 {
		t.Errorf("want one stderr line and no stdout, got stdout %q stderr %q", out, errOut)
	}
	for _, id := range sim.MechanismIDs() {
		if !strings.Contains(errOut, string(id)) {
			t.Errorf("error %q does not name %s", errOut, id)
		}
	}
}

// TestBadReplicationOverhead: an overhead the mechanism cannot build is a
// usage error on one stderr line, not a failed simulation job.
func TestBadReplicationOverhead(t *testing.T) {
	for _, v := range []string{"-1", "1e6"} {
		out, errOut, code := hybpsim(t, "-bench", "gcc", "-mech", "replication", "-replication-overhead", v)
		if code != 2 || out != "" || !strings.Contains(errOut, "replication factor") ||
			strings.Count(strings.TrimSpace(errOut), "\n") != 0 {
			t.Errorf("-replication-overhead %s: exit %d, stdout %q, stderr %q; want exit 2 and one error line",
				v, code, out, errOut)
		}
	}
}

func TestWarmupNotBelowCycles(t *testing.T) {
	out, errOut, code := hybpsim(t, "-bench", "gcc", "-cycles", "100", "-warmup", "200")
	if code != 2 || out != "" || !strings.Contains(errOut, "warmup (200 cycles) must be below the cycle budget (100 cycles)") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 2 and the warm-up error", code, out, errOut)
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the tests run the real command: when HYBPEXP_RUN_MAIN is
// set, the test binary behaves as hybpexp itself.
func TestMain(m *testing.M) {
	if os.Getenv("HYBPEXP_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// hybpexp runs the command with args and returns its stdout, stderr and
// exit code.
func hybpexp(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "HYBPEXP_RUN_MAIN=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case errors.As(err, &ee):
		code = ee.ExitCode()
	case err != nil:
		t.Fatalf("run hybpexp: %v", err)
	}
	return out.String(), errb.String(), code
}

// TestWarmupNotBelowCycles checks the scale hybpexp resolves, after the
// preset and the -cycles/-warmup overrides, before any experiment runs: an
// empty measurement window would print 0 IPCs and NaN gains.
func TestWarmupNotBelowCycles(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cycles", "100", "-warmup", "200", "tournament"},
			"warmup (200 cycles) must be below the cycle budget (100 cycles)"},
		{[]string{"-scale", "tiny", "-warmup", "700000", "fig5"},
			"warmup (700000 cycles) must be below the cycle budget (700000 cycles)"},
	} {
		out, errOut, code := hybpexp(t, append([]string{"-progress=false"}, tc.args...)...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 and %q", tc.args, code, out, errOut, tc.want)
		}
	}
}

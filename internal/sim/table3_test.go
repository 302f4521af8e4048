package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hybp/internal/faults"
	"hybp/internal/harness"
	"hybp/internal/workload"
)

// smallTable3 keeps the Table III path tests fast enough for -race: the
// PoCs run two iterations each, and the tests deliberately ignore -short
// because they are the concurrency coverage for the cell jobs.
var smallTable3 = Table3Config{Iterations: 2, Seed: 7}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTable3WarmCacheAndRemoteBytes runs Table III twice over one cache
// directory: the second Runner executes no PoC, reads all twelve cells
// from disk and renders the same bytes. Every cached payload must be
// exactly what ExecutePoint returns for the cell's spec, so a cluster
// worker and the in-process job are interchangeable.
func TestTable3WarmCacheAndRemoteBytes(t *testing.T) {
	dir := t.TempDir()
	r1 := newTestRunner(t, harness.Options{Workers: 2, CacheDir: dir})
	cold, err := r1.Table3(smallTable3)
	r1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Executed != 12 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want 12 executed", st)
	}

	r2 := newTestRunner(t, harness.Options{Workers: 2, CacheDir: dir})
	warm, err := r2.Table3(smallTable3)
	r2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Executed != 0 || st.DiskHits != 12 {
		t.Fatalf("warm stats = %+v, want 0 executed and 12 disk hits", st)
	}
	if a, b := mustJSON(t, cold), mustJSON(t, warm); !bytes.Equal(a, b) {
		t.Fatalf("warm Table III differs from cold:\n%s\n%s", a, b)
	}

	cells := table3Cells(smallTable3)
	if len(cells) != 12 {
		t.Fatalf("%d cells, want 12", len(cells))
	}
	for _, c := range cells {
		b, err := os.ReadFile(filepath.Join(dir, c.key()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Payload json.RawMessage }
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		got, err := ExecutePoint(c.canon())
		if err != nil {
			t.Fatalf("ExecutePoint(%s): %v", c.canon(), err)
		}
		if !bytes.Equal(got, e.Payload) {
			t.Errorf("%s: ExecutePoint returned %s, the job cached %s", c.key(), got, e.Payload)
		}
	}
}

// TestTable3WorkerCount: the package-level Table3 (every CPU) and a
// one-worker Runner render byte-identical tables.
func TestTable3WorkerCount(t *testing.T) {
	r := newTestRunner(t, harness.Options{Workers: 1})
	defer r.Close()
	one, err := r.Table3(smallTable3)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, Table3(smallTable3)), mustJSON(t, one); !bytes.Equal(a, b) {
		t.Fatalf("Table3 differs between NumCPU and one worker:\n%s\n%s", a, b)
	}
}

// TestTable3FailedCellIsError: a cell whose job fails would resolve to a
// zero PoCResult, a 0% success rate and so the verdict "Defend". Runner
// and Experiment must return the error instead of a table.
func TestTable3FailedCellIsError(t *testing.T) {
	r := newTestRunner(t, harness.Options{
		Workers: 2,
		Faults:  faults.New(faults.Config{Seed: 1, ExecPanic: 1, MaxConsecutive: 100}),
		Retry:   harness.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond, MaxBackoff: time.Microsecond},
	})
	defer r.Close()
	res, err := r.Table3(smallTable3)
	var je *harness.JobError
	if !errors.As(err, &je) {
		t.Fatalf("err = %v, want a *harness.JobError", err)
	}
	if res.Rows != nil || res.SuccessRates != nil {
		t.Fatalf("failed Table III returned a table: %+v", res)
	}
	if p, err := r.Experiment("table3", Tiny(), nil, nil); err == nil || p != nil {
		t.Fatalf("Experiment(table3) = %v, %v; want the cells' error", p, err)
	}
	// A failed security trial would print as a failed attack.
	if sec, err := r.Security(smallTable3); !errors.As(err, &je) || sec.PoC != nil || sec.PPP != nil {
		t.Fatalf("Security = %+v, %v; want no result and a *harness.JobError", sec, err)
	}
}

// TestSecurityWarmCacheAndRemoteBytes is TestTable3WarmCacheAndRemoteBytes
// for the security analysis: a warm rerun executes none of its 27 trials
// and prints the same bytes, and every cached payload — PoC, PPP, GEM and
// RSA — is what ExecutePoint returns for the trial's spec.
func TestSecurityWarmCacheAndRemoteBytes(t *testing.T) {
	dir := t.TempDir()
	printed := func(res SecurityResult) []byte {
		var b bytes.Buffer
		res.Print(&b)
		return b.Bytes()
	}
	r1 := newTestRunner(t, harness.Options{Workers: 2, CacheDir: dir})
	cold, err := r1.Security(smallTable3)
	r1.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := r1.Stats(); st.Executed != 27 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want 27 executed", st)
	}
	r2 := newTestRunner(t, harness.Options{Workers: 2, CacheDir: dir})
	warm, err := r2.Security(smallTable3)
	r2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.Stats(); st.Executed != 0 || st.DiskHits != 27 {
		t.Fatalf("warm stats = %+v, want 0 executed and 27 disk hits", st)
	}
	if a, b := printed(cold), printed(warm); !bytes.Equal(a, b) {
		t.Fatalf("warm security analysis differs from cold:\n%s\n%s", a, b)
	}

	var specs []PoCSpec
	for _, tr := range cold.PoC {
		specs = append(specs, tr.Spec)
	}
	for _, tr := range append(cold.PPP, cold.GEM) {
		specs = append(specs, tr.Spec)
	}
	for _, tr := range cold.RSA {
		specs = append(specs, tr.Spec)
	}
	for _, c := range specs {
		b, err := os.ReadFile(filepath.Join(dir, c.key()+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Payload json.RawMessage }
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		got, err := ExecutePoint(c.canon())
		if err != nil {
			t.Fatalf("ExecutePoint(%s): %v", c.canon(), err)
		}
		if !bytes.Equal(got, e.Payload) {
			t.Errorf("%s: ExecutePoint returned %s, the job cached %s", c.key(), got, e.Payload)
		}
	}
}

// TestDecodeSpecRejects: specs a remote worker cannot run are *SpecErrors,
// not panics, and every attack kind the security analysis submits decodes.
func TestDecodeSpecRejects(t *testing.T) {
	poc := table3Cells(smallTable3)[0]
	edited := func(base PoCSpec, edit func(*PoCSpec)) PoCSpec {
		edit(&base)
		return base
	}
	bad := func(edit func(*PoCSpec)) []byte { return edited(poc, edit).canon() }
	trial := func(kind string) PoCSpec {
		return PoCSpec{Kind: kind, Structure: "BTB", Mech: Mech(MechHyBP), SMT: true, Scale: 1.0 / 16, Seed: 3}
	}
	for name, c := range map[string]PoCSpec{
		"baseline": edited(poc, func(c *PoCSpec) { c.Mech = Mech(MechBaseline) }),
		"ppp":      trial(PointPPP),
		"gem":      edited(trial(PointGEM), func(c *PoCSpec) { c.Mech = Mech(MechBaseline) }),
		"rsa":      trial(PointRSA),
	} {
		if sp, err := decodeSpec(c.canon()); err != nil || sp != c {
			t.Errorf("%s: decodeSpec(%s) = %+v, %v; want the spec back", name, c.canon(), sp, err)
		}
	}
	cases := map[string][]byte{
		"not json":        []byte(`{"Kind":`),
		"unknown kind":    []byte(`{"Kind":"bogus"}`),
		"kind not string": []byte(`{"Kind":5}`),
		"unknown attack":  bad(func(c *PoCSpec) { c.Kind = "bogus" }),
		"ppp iterations":  edited(trial(PointPPP), func(c *PoCSpec) { c.Iterations = 10 }).canon(),
		"gem on PHT":      edited(trial(PointGEM), func(c *PoCSpec) { c.Structure = "PHT" }).canon(),
		"rsa single":      edited(trial(PointRSA), func(c *PoCSpec) { c.SMT = false }).canon(),
		"ppp brb":         edited(trial(PointPPP), func(c *PoCSpec) { c.Mech = Mech(MechBRB) }).canon(),
		"structure":       bad(func(c *PoCSpec) { c.Structure = "RSB" }),
		"replication":     bad(func(c *PoCSpec) { c.Mech = Mech(MechReplication) }),
		"brb":             bad(func(c *PoCSpec) { c.Mech = Mech(MechBRB) }),
		"unknown mech":    bad(func(c *PoCSpec) { c.Mech = MechSpec{ID: "nope"} }),
		"tournament":      bad(func(c *PoCSpec) { c.Mech.Tournament = true }),
		"zero iterations": bad(func(c *PoCSpec) { c.Iterations = 0 }),
		"neg iterations":  bad(func(c *PoCSpec) { c.Iterations = -3 }),
		"zero scale":      bad(func(c *PoCSpec) { c.Scale = 0 }),
		"neg scale":       bad(func(c *PoCSpec) { c.Scale = -0.5 }),
		"huge scale":      bad(func(c *PoCSpec) { c.Scale = 1e9 }),
		"point bench":     []byte(`{"Kind":"single","Bench":"nope","Mech":{"ID":"hybp"},"Cycles":10,"Warmup":1}`),
		"neg replication": []byte(`{"Kind":"single","Bench":"gcc","Mech":{"ID":"replication","ReplFactor":-1},"Cycles":10,"Warmup":1}`),
		"keys not pow2":   []byte(`{"Kind":"single","Bench":"gcc","Mech":{"ID":"hybp","KeysEntries":1000},"Cycles":10,"Warmup":1}`),
		"neg keys":        []byte(`{"Kind":"solo","Bench":"gcc","Mech":{"ID":"hybp","KeysEntries":-1024},"Cycles":10,"Warmup":1}`),
		"huge keys":       []byte(`{"Kind":"solo","Bench":"gcc","Mech":{"ID":"hybp","KeysEntries":4611686018427387904},"Cycles":10,"Warmup":1}`),
		"huge repl":       []byte(`{"Kind":"solo","Bench":"gcc","Mech":{"ID":"replication","ReplFactor":1e6},"Cycles":10,"Warmup":1}`),
	}
	for name, raw := range cases {
		out, err := ExecutePoint(raw)
		var se *SpecError
		if !errors.As(err, &se) || out != nil {
			t.Errorf("%s: ExecutePoint(%s) = %s, %v; want a *SpecError", name, raw, out, err)
		}
	}
}

// TestPinnedJobKeys pins the content addresses of existing points, as the
// simulator computed them before Table III's cells became jobs, of one
// Table III cell and one security PoC, as they were keyed before the
// security analysis's other attacks became PoCSpec kinds, and of one PPP
// trial: a change to a spec's shape must not silently re-key every cache
// entry.
func TestPinnedJobKeys(t *testing.T) {
	mix := workload.Mixes()[0]
	for _, tc := range []struct {
		key, want string
	}{
		{PointSpec{Kind: PointSingle, Bench: "gcc", Mech: Mech(MechFlush), Interval: 256_000,
			Cycles: 20_000, Warmup: 1_000, RootSeed: 2022}.key(),
			"single-gcc-flush-iv256K-7624e6169bfc8aab"},
		{PointSpec{Kind: PointSMT, A: mix.A, B: mix.B, Mech: Mech(MechHyBP), Interval: 4_000_000,
			Cycles: 20_000, Warmup: 1_000, RootSeed: 2022}.key(),
			"smt-cactuBSSN+imagick-hybp-iv4M-3c4af6dd14fd1852"},
		{PointSpec{Kind: PointSolo, Bench: "xz", Mech: Mech(MechReplication),
			Cycles: 20_000, Warmup: 1_000, RootSeed: 2022}.key(),
			"solo-xz-replication@1-f84968aeec6ea61f"},
		{table3Cells(Table3Config{Iterations: 200, Seed: 2022})[11].key(),
			"poc-pht-hybp-smt-3d5bb4a36365464f"},
		{PoCSpec{Kind: PointPoC, Structure: "BTB", Mech: Mech(MechBaseline), SMT: true,
			Iterations: 10000, Scale: 1.0 / 16, Seed: 2022}.key(),
			"poc-btb-baseline-smt-8ecb2a07b852de40"},
		{PoCSpec{Kind: PointPPP, Structure: "BTB", Mech: Mech(MechHyBP), SMT: true,
			Scale: 1.0 / 16, Seed: 2031}.key(),
			"ppp-btb-hybp-smt-fa0b7a4d947a8f2f"},
	} {
		if tc.key != tc.want {
			t.Errorf("key = %q, want %q", tc.key, tc.want)
		}
	}
}

// FuzzDecodeSpec feeds arbitrary bytes to the wire decoder cluster workers
// run: it must never panic, must reject with a *SpecError, and every spec
// it accepts must re-encode to canonical bytes that decode to the same
// spec. The seed corpus in testdata/fuzz covers every spec kind.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		sp, err := decodeSpec(raw)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("decodeSpec(%q) error %v (%T), want a *SpecError", raw, err, err)
			}
			return
		}
		canon := sp.canon()
		again, err := decodeSpec(canon)
		if err != nil {
			t.Fatalf("canonical bytes %s of accepted %q do not decode: %v", canon, raw, err)
		}
		if !reflect.DeepEqual(again, sp) || !bytes.Equal(again.canon(), canon) {
			t.Fatalf("%q decoded to %+v, its canonical bytes %s to %+v", raw, sp, canon, again)
		}
	})
}

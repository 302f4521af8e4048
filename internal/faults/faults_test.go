package faults

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	for op := Op(0); op < numOps; op++ {
		if d := in.Decide(op, "k"); d.Kind != None {
			t.Fatalf("nil injector fired %s at %s", d.Kind, op)
		}
	}
	in.NoteExec()
	in.CorruptBytes([]byte("abc"), "k")
	if s := in.Stats(); s.Total() != 0 {
		t.Fatalf("nil injector stats = %+v", s)
	}
}

func TestNewAllZeroIsNil(t *testing.T) {
	if in := New(Config{Seed: 42}); in != nil {
		t.Fatal("all-zero schedule built a live injector")
	}
}

// TestDecisionsDeterministic is the reproducibility contract: the decision
// for (op, key, occurrence) is identical across injectors with the same
// seed, regardless of the interleaving of calls on other keys.
func TestDecisionsDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, ExecPanic: 0.2, ExecErr: 0.3, ExecSlow: 0.1, CacheCorrupt: 0.4}
	keys := []string{"job-a", "job-b", "job-c", "job-d"}

	record := func(interleaved bool) map[string][]Kind {
		in := New(cfg)
		out := make(map[string][]Kind)
		if interleaved {
			for n := 0; n < 4; n++ {
				for _, k := range keys {
					out[k] = append(out[k], in.Decide(OpExec, k).Kind)
				}
			}
		} else {
			for _, k := range keys {
				for n := 0; n < 4; n++ {
					out[k] = append(out[k], in.Decide(OpExec, k).Kind)
				}
			}
		}
		return out
	}
	a, b := record(true), record(false)
	for _, k := range keys {
		for i := range a[k] {
			if a[k][i] != b[k][i] {
				t.Fatalf("key %s occurrence %d: %s vs %s (interleaving changed the schedule)",
					k, i, a[k][i], b[k][i])
			}
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	cfg := Config{ExecErr: 0.5}
	seq := func(seed uint64) string {
		cfg.Seed = seed
		in := New(cfg)
		var sb strings.Builder
		for i := 0; i < 64; i++ {
			k := "key-" + string(rune('a'+i%8))
			sb.WriteString(in.Decide(OpExec, k).Kind.String())
		}
		return sb.String()
	}
	if seq(1) == seq(2) {
		t.Fatal("seeds 1 and 2 produced identical fault schedules")
	}
}

// TestMaxConsecutiveConverges: after MaxConsecutive occurrences every
// (op, key) pair is permanently clean, so bounded retry always succeeds.
func TestMaxConsecutiveConverges(t *testing.T) {
	in := New(Config{Seed: 3, ExecErr: 1.0, MaxConsecutive: 2})
	for _, k := range []string{"x", "y"} {
		if d := in.Decide(OpExec, k); d.Kind != Err {
			t.Fatalf("rate-1.0 occurrence 0 of %s: %s, want err", k, d.Kind)
		}
		if d := in.Decide(OpExec, k); d.Kind != Err {
			t.Fatalf("rate-1.0 occurrence 1 of %s: %s, want err", k, d.Kind)
		}
		for n := 2; n < 6; n++ {
			if d := in.Decide(OpExec, k); d.Kind != None {
				t.Fatalf("occurrence %d of %s fired %s past MaxConsecutive", n, k, d.Kind)
			}
		}
	}
	if s := in.Stats(); s.Errs != 4 {
		t.Fatalf("stats = %+v, want 4 errs", s)
	}
}

func TestRatesRespectOpBoundaries(t *testing.T) {
	// Only exec faults configured: cache and conn ops must never fire.
	in := New(Config{Seed: 9, ExecPanic: 1.0})
	for i := 0; i < 32; i++ {
		for _, op := range []Op{OpCacheRead, OpCacheWrite, OpConn, OpStream} {
			if d := in.Decide(op, "k"); d.Kind != None {
				t.Fatalf("%s fired %s with only exec rates set", op, d.Kind)
			}
		}
	}
}

func TestSlowDecisionHasBoundedDelay(t *testing.T) {
	in := New(Config{Seed: 11, ExecSlow: 1.0, SlowMax: 3 * time.Millisecond})
	fired := false
	for i := 0; i < 16; i++ {
		d := in.Decide(OpExec, "slow-"+string(rune('a'+i)))
		if d.Kind != Slow {
			continue
		}
		fired = true
		if d.Delay <= 0 || d.Delay > 3*time.Millisecond {
			t.Fatalf("delay %s outside (0, 3ms]", d.Delay)
		}
	}
	if !fired {
		t.Fatal("rate-1.0 slow never fired")
	}
}

func TestCorruptBytesDeterministic(t *testing.T) {
	in := New(Config{Seed: 5, CacheCorrupt: 1.0})
	orig := []byte(`{"value":42,"list":[1,2,3]}`)
	a := append([]byte(nil), orig...)
	b := append([]byte(nil), orig...)
	in.CorruptBytes(a, "k1")
	New(Config{Seed: 5, CacheCorrupt: 1.0}).CorruptBytes(b, "k1")
	if string(a) == string(orig) {
		t.Fatal("CorruptBytes left the payload untouched")
	}
	if string(a) != string(b) {
		t.Fatalf("corruption not reproducible:\n%q\n%q", a, b)
	}
	c := append([]byte(nil), orig...)
	in.CorruptBytes(c, "k2")
	if string(c) == string(a) {
		t.Fatal("different keys corrupted identically")
	}
}

func TestParseRoundTrip(t *testing.T) {
	in, err := Parse("seed=7, exec.panic=0.1,exec.err=0.15,cache.corrupt=0.3,conn.drop=0.2,maxconsec=3,slowmax=10ms,crashafter=20")
	if err != nil {
		t.Fatal(err)
	}
	cfg := in.Config()
	if cfg.Seed != 7 || cfg.ExecPanic != 0.1 || cfg.ExecErr != 0.15 ||
		cfg.CacheCorrupt != 0.3 || cfg.ConnDrop != 0.2 ||
		cfg.MaxConsecutive != 3 || cfg.SlowMax != 10*time.Millisecond || cfg.CrashAfter != 20 {
		t.Fatalf("parsed config = %+v", cfg)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"exec.panic", "key=value"},
		{"exec.panic=2", "outside"},
		{"exec.panic=-0.1", "outside"},
		{"conn.drop=NaN", "outside"},
		{"nope=1", "unknown field"},
		{"seed=abc", "bad seed"},
	}
	for _, tc := range cases {
		if _, err := Parse(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("Parse(%q) = %v, want error mentioning %q", tc.spec, err, tc.want)
		}
	}
	if in, err := Parse("  "); err != nil || in != nil {
		t.Fatalf("empty spec = (%v, %v), want nil no-op", in, err)
	}
}

// specOf renders cfg as a Parse spec naming every field.
func specOf(cfg Config) string {
	rate := func(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }
	return fmt.Sprintf("seed=%d,exec.panic=%s,exec.err=%s,exec.slow=%s,"+
		"cache.readerr=%s,cache.corrupt=%s,cache.torn=%s,cache.writeerr=%s,"+
		"conn.drop=%s,stream.drop=%s,journal.corrupt=%s,journal.torn=%s,"+
		"slowmax=%s,maxconsec=%d,crashafter=%d",
		cfg.Seed, rate(cfg.ExecPanic), rate(cfg.ExecErr), rate(cfg.ExecSlow),
		rate(cfg.CacheReadErr), rate(cfg.CacheCorrupt), rate(cfg.CacheTorn), rate(cfg.CacheWriteErr),
		rate(cfg.ConnDrop), rate(cfg.StreamDrop), rate(cfg.JournalCorrupt), rate(cfg.JournalTorn),
		cfg.SlowMax, cfg.MaxConsecutive, cfg.CrashAfter)
}

// FuzzParse feeds arbitrary specs to Parse. No input may panic it, and an
// accepted spec's Config must render to a spec that parses to the same
// Config.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		in, err := Parse(spec)
		if err != nil {
			return
		}
		cfg := in.Config()
		again, err := Parse(specOf(cfg))
		if err != nil {
			t.Fatalf("%q parsed to %+v, whose spec %q does not parse: %v", spec, cfg, specOf(cfg), err)
		}
		if got := again.Config(); got != cfg {
			t.Fatalf("%q parsed to %+v, its spec %q to %+v", spec, cfg, specOf(cfg), got)
		}
	})
}

func TestTransportDropsAndRecovers(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	in := New(Config{Seed: 1, ConnDrop: 1.0, MaxConsecutive: 2})
	c := &http.Client{Transport: &Transport{Inj: in}}

	var resetSeen int
	var okSeen bool
	for i := 0; i < 4; i++ {
		resp, err := c.Get(ts.URL + "/v1/jobs")
		if err != nil {
			if !strings.Contains(err.Error(), "connection reset") {
				t.Fatalf("dropped request error %v does not read as a reset", err)
			}
			resetSeen++
			continue
		}
		resp.Body.Close()
		okSeen = true
	}
	if resetSeen != 2 || !okSeen {
		t.Fatalf("saw %d resets (want 2, then recovery)", resetSeen)
	}
	if s := in.Stats(); s.Drops != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestNilInjectorZeroAlloc pins the production cost of the injection
// points: a nil *Injector must decide, corrupt, and note without
// allocating — the whole framework compiles down to one pointer compare
// on the hot path.
func TestNilInjectorZeroAlloc(t *testing.T) {
	var in *Injector
	buf := make([]byte, 64)
	if n := testing.AllocsPerRun(1000, func() {
		_ = in.Decide(OpExec, "job-key")
		in.CorruptBytes(buf, "job-key")
		in.NoteExec()
	}); n != 0 {
		t.Fatalf("nil injector allocated %.1f per op, want 0", n)
	}
}

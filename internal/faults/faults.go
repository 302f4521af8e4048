// Package faults is a deterministic, seed-driven fault injector for the
// experiment stack. It exposes narrow injection points — filesystem
// operations on the result cache, worker job execution, and client/server
// connections — that the harness, server, and client consult through a
// nil-safe Injector. A nil *Injector is the production configuration:
// every Decide call on it returns no fault and performs no work, so the
// zero-fault overhead is one pointer comparison.
//
// Determinism is the point. Every decision is a pure function of
// (schedule seed, injection point, job key, occurrence number), derived
// via the splitmix64 finalizer from internal/rng — never of wall-clock
// time, goroutine scheduling, or worker count. A fault schedule is
// therefore reproducible from its seed (the chaos test pins one) and
// shrinkable: re-running with the same spec replays the same faults
// against the same keys.
//
// Convergence is guaranteed by construction: a (point, key) pair stops
// faulting after MaxConsecutive occurrences, so any retry loop with more
// than MaxConsecutive attempts always reaches the genuine operation. That
// is what lets the chaos run demand byte-identical output — the faults
// perturb the path, never the destination.
package faults

import (
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hybp/internal/rng"
)

// Op names an injection point.
type Op uint8

const (
	// OpCacheRead is the disk cache lookup (harness).
	OpCacheRead Op = iota
	// OpCacheWrite is the disk cache store (harness).
	OpCacheWrite
	// OpExec is one worker execution attempt of a job (harness).
	OpExec
	// OpConn is one client HTTP round trip (server/client).
	OpConn
	// OpStream is one SSE event-loop iteration (server).
	OpStream
	// OpJournal is one write-ahead-log record append (journal).
	OpJournal
	numOps
)

var opNames = [numOps]string{"cache-read", "cache-write", "exec", "conn", "stream", "journal"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Kind is what a fired fault does. Which kinds a point honors is up to the
// call site; Decide only ever emits kinds configured for the op.
type Kind uint8

const (
	// None means no fault: proceed normally.
	None Kind = iota
	// Err fails the operation with a transient error.
	Err
	// Panic panics mid-operation (worker execution).
	Panic
	// Slow delays the operation by Decision.Delay.
	Slow
	// Corrupt flips bytes in the written payload (cache write).
	Corrupt
	// Torn truncates the written payload (cache write).
	Torn
	// Drop severs the connection / ends the stream (conn, stream).
	Drop
	numKinds
)

var kindNames = [numKinds]string{"none", "err", "panic", "slow", "corrupt", "torn", "drop"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Decision is the outcome of one Decide call.
type Decision struct {
	Kind Kind
	// Delay accompanies Slow.
	Delay time.Duration
}

// Config is a fault schedule. Each rate is the probability, per occurrence
// of the op on a given key, that the corresponding fault fires (rates for
// one op are tried in declaration order and share the occurrence's single
// uniform draw, so their sum should stay <= 1).
type Config struct {
	// Seed drives the whole schedule; same seed, same faults.
	Seed uint64

	// ExecPanic/ExecErr/ExecSlow fire on worker execution attempts.
	ExecPanic float64
	ExecErr   float64
	ExecSlow  float64

	// CacheReadErr makes a disk-cache lookup fail (treated as a miss).
	CacheReadErr float64
	// CacheCorrupt/CacheTorn corrupt or truncate a cache write's payload;
	// CacheWriteErr suppresses the write entirely.
	CacheCorrupt  float64
	CacheTorn     float64
	CacheWriteErr float64

	// ConnDrop fails a client round trip with a connection-reset error;
	// StreamDrop cuts a live SSE stream.
	ConnDrop   float64
	StreamDrop float64

	// JournalCorrupt flips bytes inside a journal record's payload (the
	// checksum stays the pre-damage one, so replay quarantines the tail);
	// JournalTorn cuts a record's frame short mid-write, simulating a crash
	// between write and fsync (replay truncates it silently).
	JournalCorrupt float64
	JournalTorn    float64

	// SlowMax bounds injected delays (default 5ms).
	SlowMax time.Duration
	// MaxConsecutive is how many occurrences of one (op, key) pair may
	// fault before that pair goes permanently clean (default 2). Retry
	// loops with more attempts than this always converge.
	MaxConsecutive int
	// CrashAfter, when > 0, hard-kills the process (os.Exit(CrashExitCode))
	// after that many successful worker executions — the chaos test's
	// kill-and-resume point.
	CrashAfter uint64
}

// CrashExitCode is the exit status of an injected CrashAfter kill, chosen
// to be distinguishable from ordinary failures (1) and flag errors (2).
const CrashExitCode = 3

// Stats counts fired faults by kind.
type Stats struct {
	Errs     uint64 `json:"errs"`
	Panics   uint64 `json:"panics"`
	Slows    uint64 `json:"slows"`
	Corrupts uint64 `json:"corrupts"`
	Torn     uint64 `json:"torn"`
	Drops    uint64 `json:"drops"`
}

// Total is the number of faults fired.
func (s Stats) Total() uint64 {
	return s.Errs + s.Panics + s.Slows + s.Corrupts + s.Torn + s.Drops
}

func (s Stats) String() string {
	return fmt.Sprintf("%d faults (%d errs, %d panics, %d slows, %d corrupts, %d torn, %d drops)",
		s.Total(), s.Errs, s.Panics, s.Slows, s.Corrupts, s.Torn, s.Drops)
}

// Injector decides deterministically which operations fault. The zero
// Injector is unusable; build one with New. All methods are safe on a nil
// receiver (no fault, no cost) and for concurrent use.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	occ map[occKey]uint32

	fired [numKinds]atomic.Uint64
	execs atomic.Uint64
}

type occKey struct {
	op  Op
	key string
}

// New builds an Injector from a schedule. A nil return for an all-zero
// schedule is deliberate: "no faults configured" and "no injector" are the
// same production state.
func New(cfg Config) *Injector {
	if cfg == (Config{Seed: cfg.Seed}) {
		return nil
	}
	if cfg.SlowMax <= 0 {
		cfg.SlowMax = 5 * time.Millisecond
	}
	if cfg.MaxConsecutive <= 0 {
		cfg.MaxConsecutive = 2
	}
	return &Injector{cfg: cfg, occ: make(map[occKey]uint32)}
}

// Enabled reports whether any faults can fire.
func (in *Injector) Enabled() bool { return in != nil }

// Config returns the schedule the injector was built from (zero for nil).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Stats snapshots the fired-fault counters.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Errs:     in.fired[Err].Load(),
		Panics:   in.fired[Panic].Load(),
		Slows:    in.fired[Slow].Load(),
		Corrupts: in.fired[Corrupt].Load(),
		Torn:     in.fired[Torn].Load(),
		Drops:    in.fired[Drop].Load(),
	}
}

// Decide returns the fault (or None) for this occurrence of op on key.
// The decision depends only on (seed, op, key, occurrence number): two
// processes replaying the same operations in any interleaving observe the
// same per-key fault sequence.
func (in *Injector) Decide(op Op, key string) Decision {
	if in == nil {
		return Decision{}
	}
	in.mu.Lock()
	ok := occKey{op, key}
	n := in.occ[ok]
	in.occ[ok] = n + 1
	in.mu.Unlock()
	if int(n) >= in.cfg.MaxConsecutive {
		return Decision{}
	}
	u := in.uniform(op, key, n)
	d := Decision{Kind: in.pick(op, u)}
	if d.Kind == Slow {
		// A second derived draw sizes the delay; still pure in (seed, op,
		// key, n).
		frac := float64(in.draw(op, key, n^0x5157)>>11) / (1 << 53)
		d.Delay = time.Duration(frac * float64(in.cfg.SlowMax))
		if d.Delay <= 0 {
			d.Delay = time.Millisecond
		}
	}
	if d.Kind != None {
		in.fired[d.Kind].Add(1)
	}
	return d
}

// pick maps one uniform draw onto the op's configured kinds, tried in a
// fixed order with cumulative thresholds.
func (in *Injector) pick(op Op, u float64) Kind {
	type slot struct {
		rate float64
		kind Kind
	}
	var slots []slot
	switch op {
	case OpExec:
		slots = []slot{{in.cfg.ExecPanic, Panic}, {in.cfg.ExecErr, Err}, {in.cfg.ExecSlow, Slow}}
	case OpCacheRead:
		slots = []slot{{in.cfg.CacheReadErr, Err}}
	case OpCacheWrite:
		slots = []slot{{in.cfg.CacheCorrupt, Corrupt}, {in.cfg.CacheTorn, Torn}, {in.cfg.CacheWriteErr, Err}}
	case OpConn:
		slots = []slot{{in.cfg.ConnDrop, Drop}}
	case OpStream:
		slots = []slot{{in.cfg.StreamDrop, Drop}}
	case OpJournal:
		slots = []slot{{in.cfg.JournalCorrupt, Corrupt}, {in.cfg.JournalTorn, Torn}}
	}
	cum := 0.0
	for _, s := range slots {
		cum += s.rate
		if s.rate > 0 && u < cum {
			return s.kind
		}
	}
	return None
}

// draw derives the deterministic 64-bit value for (seed, op, key, n).
func (in *Injector) draw(op Op, key string, n uint32) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := in.cfg.Seed ^ h.Sum64() ^ uint64(op)<<56 ^ uint64(n)<<40
	return rng.Mix64(x)
}

// uniform maps a draw into [0, 1).
func (in *Injector) uniform(op Op, key string, n uint32) float64 {
	return float64(in.draw(op, key, n)>>11) / (1 << 53)
}

// CorruptBytes deterministically flips a few bytes of b in place (the
// cache-write Corrupt fault). The flip positions derive from the schedule
// seed and key, so a corrupt entry's exact damage is reproducible.
func (in *Injector) CorruptBytes(b []byte, key string) {
	if in == nil || len(b) == 0 {
		return
	}
	g := rng.NewSplitMix64(in.draw(OpCacheWrite, key, 0xC0DE))
	flips := 1 + int(g.Next()%3)
	for i := 0; i < flips; i++ {
		pos := int(g.Next() % uint64(len(b)))
		b[pos] ^= byte(1 + g.Next()%255)
	}
}

// NoteExec records one successful worker execution and enforces
// CrashAfter: when the configured count is reached the process dies
// immediately with CrashExitCode, simulating a hard kill mid-run. The
// caller cannot recover — that is the point; the next process resumes from
// the on-disk cache.
func (in *Injector) NoteExec() {
	if in == nil || in.cfg.CrashAfter == 0 {
		return
	}
	if in.execs.Add(1) == in.cfg.CrashAfter {
		fmt.Fprintf(os.Stderr, "faults: injected crash after %d executions\n", in.cfg.CrashAfter)
		os.Exit(CrashExitCode)
	}
}

// Parse builds an Injector from a compact comma-separated spec, the form
// the CLIs accept via -faults:
//
//	seed=7,exec.panic=0.1,exec.err=0.15,exec.slow=0.05,
//	cache.readerr=0.05,cache.corrupt=0.3,cache.torn=0.1,cache.writeerr=0.05,
//	conn.drop=0.2,stream.drop=0.2,journal.corrupt=0.1,journal.torn=0.1,
//	maxconsec=2,slowmax=5ms,crashafter=20
//
// Unknown fields are errors; an empty spec returns a nil (no-op) injector.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var cfg Config
	for _, field := range strings.Split(spec, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("faults: bad field %q (want key=value)", field)
		}
		k = strings.ToLower(strings.TrimSpace(k))
		v = strings.TrimSpace(v)
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(v, 10, 64)
		case "exec.panic":
			cfg.ExecPanic, err = parseRate(v)
		case "exec.err":
			cfg.ExecErr, err = parseRate(v)
		case "exec.slow":
			cfg.ExecSlow, err = parseRate(v)
		case "cache.readerr":
			cfg.CacheReadErr, err = parseRate(v)
		case "cache.corrupt":
			cfg.CacheCorrupt, err = parseRate(v)
		case "cache.torn":
			cfg.CacheTorn, err = parseRate(v)
		case "cache.writeerr":
			cfg.CacheWriteErr, err = parseRate(v)
		case "conn.drop":
			cfg.ConnDrop, err = parseRate(v)
		case "stream.drop":
			cfg.StreamDrop, err = parseRate(v)
		case "journal.corrupt":
			cfg.JournalCorrupt, err = parseRate(v)
		case "journal.torn":
			cfg.JournalTorn, err = parseRate(v)
		case "slowmax":
			cfg.SlowMax, err = time.ParseDuration(v)
		case "maxconsec":
			cfg.MaxConsecutive, err = strconv.Atoi(v)
		case "crashafter":
			cfg.CrashAfter, err = strconv.ParseUint(v, 10, 64)
		default:
			return nil, fmt.Errorf("faults: unknown field %q (valid: %s)", k, strings.Join(specFields(), ", "))
		}
		if err != nil {
			return nil, fmt.Errorf("faults: bad %s: %v", k, err)
		}
	}
	return New(cfg), nil
}

func parseRate(v string) (float64, error) {
	r, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(r >= 0 && r <= 1) { // NaN fails both comparisons
		return 0, fmt.Errorf("rate %g outside [0, 1]", r)
	}
	return r, nil
}

func specFields() []string {
	fs := []string{
		"seed", "exec.panic", "exec.err", "exec.slow",
		"cache.readerr", "cache.corrupt", "cache.torn", "cache.writeerr",
		"conn.drop", "stream.drop", "journal.corrupt", "journal.torn",
		"slowmax", "maxconsec", "crashafter",
	}
	sort.Strings(fs)
	return fs
}

package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"sync/atomic"
	"testing"
)

// FuzzCacheGet writes arbitrary bytes as one key's cache file and reads
// them back through diskCache.get. No input may panic it. get may accept
// the file only when its envelope decodes, its sum equals Checksum of the
// payload bytes, and the payload decodes into the requested type; an
// accepted file stays in place. Every rejected file must be renamed to
// <entry>.bad with its bytes intact and counted as one quarantine. The
// seed corpus is in testdata/fuzz/FuzzCacheGet.
func FuzzCacheGet(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var quarantines atomic.Uint64
		c, err := newDiskCache(t.TempDir(), nil, &quarantines)
		if err != nil {
			t.Fatal(err)
		}
		const key = "single-gcc-hybp-fuzz"
		p := c.path(key)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		var out fakeResult
		if c.get(key, &out) {
			var e entry
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("accepted an envelope that does not decode: %v", err)
			}
			if e.Sum != Checksum(e.Payload) {
				t.Fatalf("accepted sum %q for payload %q, whose checksum is %q", e.Sum, e.Payload, Checksum(e.Payload))
			}
			var again fakeResult
			if err := json.Unmarshal(e.Payload, &again); err != nil || again != out {
				t.Fatalf("accepted payload %q decodes to %+v (%v), get returned %+v", e.Payload, again, err, out)
			}
			if _, err := os.Stat(p); err != nil || quarantines.Load() != 0 {
				t.Fatalf("accepted entry moved (%v) or counted as quarantined (%d)", err, quarantines.Load())
			}
			return
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("rejected entry still in place (stat err %v)", err)
		}
		bad, err := os.ReadFile(p + ".bad")
		if err != nil || !bytes.Equal(bad, raw) {
			t.Fatalf("rejected entry not quarantined intact: %v", err)
		}
		if n := quarantines.Load(); n != 1 {
			t.Fatalf("%d quarantines counted, want 1", n)
		}
	})
}

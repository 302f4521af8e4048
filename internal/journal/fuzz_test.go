package journal

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay writes arbitrary bytes as a journal's only segment file
// and opens the journal on it. No input may panic Open or Replay. Replay
// must yield exactly the leading run of whole frames whose FNV-1a checksum
// verifies, in order and byte for byte; the segment must be cut back to
// that run, with a corrupt tail (a checksum mismatch or an oversized length
// prefix) quarantined intact to the ".bad" file and a torn one dropped. A
// second Open of the repaired directory must replay the same records. The
// seed corpus is in testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		// The reference walk: frames are checked here against a checksum
		// computed independently of the journal's own.
		var want [][]byte
		off, corrupt := 0, false
		for len(raw)-off >= frameHeader {
			n := uint64(binary.LittleEndian.Uint32(raw[off:]))
			if n > maxRecord {
				corrupt = true
				break
			}
			if uint64(len(raw)-off-frameHeader) < n {
				break
			}
			payload := raw[off+frameHeader : off+frameHeader+int(n)]
			h := fnv.New64a()
			h.Write(payload)
			if h.Sum64() != binary.LittleEndian.Uint64(raw[off+4:]) {
				corrupt = true
				break
			}
			want = append(want, payload)
			off += frameHeader + int(n)
		}

		dir := t.TempDir()
		seg := filepath.Join(dir, segName(1))
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got := replayFuzz(t, dir)
		if len(got) != len(want) {
			t.Fatalf("replayed %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
			}
		}

		kept, err := os.ReadFile(seg)
		switch {
		case len(want) == 0 && !os.IsNotExist(err):
			t.Fatalf("segment with no whole record kept (stat err %v)", err)
		case len(want) > 0 && (err != nil || !bytes.Equal(kept, raw[:off])):
			t.Fatalf("segment cut to %d bytes (%v), want the %d-byte valid run", len(kept), err, off)
		}
		bad, err := os.ReadFile(seg + ".bad")
		switch {
		case corrupt && (err != nil || !bytes.Equal(bad, raw[off:])):
			t.Fatalf("corrupt tail not quarantined intact (%v)", err)
		case !corrupt && !os.IsNotExist(err):
			t.Fatalf("tail quarantined without corruption (stat err %v)", err)
		}

		again := replayFuzz(t, dir)
		if len(again) != len(got) {
			t.Fatalf("second Open replayed %d records, first %d", len(again), len(got))
		}
		for i := range got {
			if !bytes.Equal(again[i], got[i]) {
				t.Fatalf("second Open record %d = %q, first %q", i, again[i], got[i])
			}
		}
	})
}

// replayFuzz opens dir without fsyncs, replays it and closes it.
func replayFuzz(t *testing.T, dir string) [][]byte {
	t.Helper()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var out [][]byte
	if err := j.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

package trace

import (
	"bytes"
	"reflect"
	"testing"

	"hybp/internal/workload"
)

// FuzzReader feeds arbitrary bytes to the HYBPTRC1 decoder. No input may
// panic it. When NewReader accepts the header, every event decoded before
// the first error (or EOF) must re-encode through NewWriter to a stream
// that decodes to the same header and the same events. The comparison is
// on decoded values, not bytes: the decoder ignores meta bits 5-7 and
// accepts non-minimal varints, so distinct inputs may mean the same
// stream. The seed corpus is in testdata/fuzz/FuzzReader.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		r, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		h := r.Header()
		var evs []workload.Event
		for {
			ev, err := r.ReadEvent()
			if err != nil {
				break
			}
			evs = append(evs, ev)
		}

		var buf bytes.Buffer
		w, err := NewWriter(&buf, h)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			if err := w.WriteEvent(ev); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}

		again, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("re-encoded header %+v does not decode: %v", h, err)
		}
		if again.Header() != h {
			t.Fatalf("header %+v re-encodes to %+v", h, again.Header())
		}
		got, err := again.ReadAll()
		if err != nil {
			t.Fatalf("re-encoded events do not decode: %v", err)
		}
		if len(got) != len(evs) || len(evs) > 0 && !reflect.DeepEqual(got, evs) {
			t.Fatalf("%d events %+v re-encode to %d events %+v", len(evs), evs, len(got), got)
		}
	})
}

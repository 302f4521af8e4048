package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzNormalize feeds arbitrary bytes, decoded as a JobRequest the way
// handleSubmit decodes a request body, to normalize. No input may panic
// it, and every request it accepts must come back canonical: normalizing
// the canonical request again gives the same request and the same harness
// key, so a resubmitted job dedupes onto itself. The seed corpus in
// testdata/fuzz covers sim and experiment requests, accepted and rejected.
func FuzzNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req JobRequest
		if json.NewDecoder(bytes.NewReader(raw)).Decode(&req) != nil {
			return
		}
		canon, key, err := normalize(req)
		if err != nil {
			return
		}
		again, key2, err := normalize(canon)
		if err != nil {
			t.Fatalf("canonical %+v of accepted %q rejected: %v", canon, raw, err)
		}
		if !reflect.DeepEqual(again, canon) || key2 != key {
			t.Fatalf("%q normalized to %+v (key %s), then to %+v (key %s)", raw, canon, key, again, key2)
		}
	})
}

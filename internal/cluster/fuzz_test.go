package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"hybp/internal/harness"
	"hybp/internal/obs"
)

// FuzzResultRequest posts an arbitrary body to the coordinator's result
// handler for an item leased to a registered worker. No body may panic the
// handler. The item may resolve only from a body that decodes: to a
// payload only when the body's sum equals harness.Checksum of its payload
// bytes, which become the item's payload unchanged; to a terminal error
// only when the lessee itself reports it. A checksum mismatch must be
// answered 400 and counted as rejected. The seed corpus is in
// testdata/fuzz/FuzzResultRequest.
func FuzzResultRequest(f *testing.F) {
	const key = "single-gcc-hybp-fuzz"
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := NewCoordinator(Options{Tracer: obs.NewTracer("fuzz", 64)})
		defer c.Close()
		mux := http.NewServeMux()
		c.Mount(mux)
		post := func(path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			return rec
		}

		var reg RegisterResponse
		if err := json.Unmarshal(post("/v1/cluster/workers", []byte(`{"name":"fuzz"}`)).Body.Bytes(), &reg); err != nil {
			t.Fatal(err)
		}
		// Enqueue the item as Execute does, then lease it to the worker.
		it := &workItem{key: key, spec: json.RawMessage(`{}`), done: make(chan struct{}), abandoned: make(chan struct{})}
		c.mu.Lock()
		c.items[key] = it
		c.pending = append(c.pending, it)
		c.mu.Unlock()
		lease, _ := json.Marshal(LeaseRequest{WorkerID: reg.WorkerID})
		rec := post("/v1/work/lease", lease)
		c.mu.Lock()
		leased := it.state
		c.mu.Unlock()
		if rec.Code != http.StatusOK || leased != stateLeased {
			t.Fatalf("lease: status %d, item state %d", rec.Code, leased)
		}

		rec = post("/v1/work/"+key+"/result", raw)

		var req ResultRequest
		decodeErr := json.NewDecoder(bytes.NewReader(raw)).Decode(&req)
		c.mu.Lock()
		state, payload, failErr, rejected := it.state, it.payload, it.failErr, c.totals.Rejected
		c.mu.Unlock()
		if decodeErr == nil && req.Error == "" && req.Sum != harness.Checksum(req.Payload) {
			if rec.Code != http.StatusBadRequest || rejected != 1 || state == stateDone {
				t.Fatalf("checksum mismatch answered %d (rejected %d, item state %d)", rec.Code, rejected, state)
			}
		}
		if state != stateDone {
			return
		}
		switch {
		case decodeErr != nil:
			t.Fatalf("item resolved by a body that does not decode (%v)", decodeErr)
		case failErr != "":
			if failErr != req.Error || req.WorkerID != reg.WorkerID {
				t.Fatalf("terminal error %q accepted from worker %q (lessee %q)", failErr, req.WorkerID, reg.WorkerID)
			}
		case req.Error != "":
			t.Fatalf("error report %q resolved the item with a payload", req.Error)
		case req.Sum != harness.Checksum(payload) || !bytes.Equal(payload, req.Payload):
			t.Fatalf("payload %q accepted under sum %q (its checksum is %s; body payload %q)",
				payload, req.Sum, harness.Checksum(payload), req.Payload)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("item resolved but answered %d", rec.Code)
		}
	})
}

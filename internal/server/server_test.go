package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hybp/internal/faults"
)

// testServer builds a Server whose job execution is replaced by hook.
func testServer(t *testing.T, cfg Config, hook func(j *Job) (any, error)) (*Server, *httptest.Server) {
	t.Helper()
	cfg.execOverride = hook
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJob submits a raw body and returns the response (its body already
// read into raw) plus the decoded JobInfo on success.
func postJob(t *testing.T, ts *httptest.Server, body string) (resp *http.Response, raw []byte, ji JobInfo) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ji); err != nil {
			t.Fatalf("decode job info: %v", err)
		}
	}
	return resp, raw, ji
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var ji JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&ji); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	return ji
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ji := getJob(t, ts, id)
		if ji.Terminal() {
			return ji
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobInfo{}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := testServer(t, Config{}, func(*Job) (any, error) { return "ok", nil })
	cases := []struct {
		name, body, wantErr string
	}{
		{"no config", `{}`, "missing job config"},
		{"both configs", `{"sim":{"bench":"gcc"},"experiment":{"name":"cost"}}`, "exactly one"},
		{"bad bench", `{"sim":{"bench":"nope"}}`, "unknown benchmark"},
		{"bad bench2", `{"sim":{"bench":"gcc","bench2":"nope"}}`, "unknown benchmark"},
		{"bad mech", `{"sim":{"bench":"gcc","mech":"turbo"}}`, "unknown mechanism"},
		{"warmup over cycles", `{"sim":{"bench":"gcc","cycles":100,"warmup":200}}`, "warmup"},
		{"neg replication", `{"sim":{"bench":"gcc","mech":"replication","replication_overhead":-1}}`, "replication factor"},
		{"keys not pow2", `{"sim":{"bench":"gcc","mech":"hybp","keys_entries":1000}}`, "keys-table entries"},
		{"neg keys", `{"sim":{"bench":"gcc","keys_entries":-1024}}`, "keys-table entries"},
		{"huge keys", `{"sim":{"bench":"gcc","keys_entries":4611686018427387904}}`, "keys-table entries"},
		{"huge replication", `{"sim":{"bench":"gcc","mech":"replication","replication_overhead":1e6}}`, "replication factor"},
		{"bad experiment", `{"experiment":{"name":"fig99"}}`, "unknown experiment"},
		{"bad scale", `{"experiment":{"name":"cost","scale":"galactic"}}`, "unknown scale"},
		{"experiment warmup over cycles", `{"experiment":{"name":"tournament","cycles":100,"warmup":200}}`, "warmup"},
		{"experiment warmup over preset", `{"experiment":{"name":"fig5","scale":"tiny","warmup":700000}}`, "warmup"},
		{"kind mismatch", `{"kind":"experiment","sim":{"bench":"gcc"}}`, "does not match"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw, _ := postJob(t, ts, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var eb ErrorBody
			if err := json.Unmarshal(raw, &eb); err != nil {
				t.Fatalf("decode error body: %v", err)
			}
			if !strings.Contains(eb.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", eb.Error, tc.wantErr)
			}
			// "valid values" errors must actually list valid values.
			if strings.Contains(eb.Error, "unknown") && !strings.Contains(eb.Error, "valid:") {
				t.Fatalf("error %q lists no valid values", eb.Error)
			}
		})
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := testServer(t, Config{}, func(j *Job) (any, error) {
		return map[string]string{"echo": j.req.Sim.Bench}, nil
	})
	resp, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+ji.ID {
		t.Fatalf("Location = %q", loc)
	}
	final := waitDone(t, ts, ji.ID)
	if final.Status != StatusDone {
		t.Fatalf("status = %s (err %q)", final.Status, final.Error)
	}
	var out map[string]string
	if err := json.Unmarshal(final.Result, &out); err != nil || out["echo"] != "gcc" {
		t.Fatalf("result = %s, err %v", final.Result, err)
	}
}

func TestDedupIdenticalConfigs(t *testing.T) {
	release := make(chan struct{})
	execs := 0
	s, ts := testServer(t, Config{Workers: 2}, func(*Job) (any, error) {
		execs++ // workers=2 but only one job: no race
		<-release
		return "done", nil
	})
	// Spelled differently, same canonical config: defaults fill in.
	resp1, _, ji1 := postJob(t, ts, `{"sim":{"bench":"gcc","mech":"hybp"}}`)
	resp2, _, ji2 := postJob(t, ts, `{"kind":"sim","sim":{"bench":"gcc","seed":2022}}`)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("dedup submit: %d, want 200", resp2.StatusCode)
	}
	if ji1.ID != ji2.ID {
		t.Fatalf("ids differ: %s vs %s", ji1.ID, ji2.ID)
	}
	if !ji2.Deduped || ji2.Submits != 2 {
		t.Fatalf("second submit not marked deduped: %+v", ji2)
	}
	close(release)
	final := waitDone(t, ts, ji1.ID)
	if final.Status != StatusDone {
		t.Fatalf("status = %s", final.Status)
	}
	if execs != 1 {
		t.Fatalf("executed %d times, want 1", execs)
	}
	m := s.Metrics()
	if m.Server.JobsSubmitted != 2 || m.Server.JobsDeduped != 1 {
		t.Fatalf("metrics = %+v", m.Server)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	_, ts := testServer(t, Config{Workers: 1, QueueSize: 1}, func(*Job) (any, error) {
		started <- struct{}{}
		<-release
		return "done", nil
	})
	// First job: admitted and picked up by the only worker.
	resp, _, ji1 := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d", resp.StatusCode)
	}
	<-started
	// Second distinct job: sits in the queue (capacity 1).
	resp, _, _ = postJob(t, ts, `{"sim":{"bench":"xz"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second: %d", resp.StatusCode)
	}
	// Third distinct job: queue full -> 429 with Retry-After.
	resp, raw, _ := postJob(t, ts, `{"sim":{"bench":"leela"}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err != nil || !strings.Contains(eb.Error, "queue full") {
		t.Fatalf("429 body = %+v, err %v", eb, err)
	}
	// A dedup of the running job still succeeds while the queue is full:
	// coalescing adds no work.
	resp, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)
	if resp.StatusCode != http.StatusOK || ji.ID != ji1.ID {
		t.Fatalf("dedup during overload: %d %+v", resp.StatusCode, ji)
	}
	close(release)
	waitDone(t, ts, ji1.ID)
}

func TestDrainFinishesInFlightAndRefusesNew(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := testServer(t, Config{Workers: 1}, func(*Job) (any, error) {
		started <- struct{}{}
		<-release
		return "drained", nil
	})
	_, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)
	<-started

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	// Draining: new work refused, probes report it.
	waitFor(t, func() bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp, _, _ := postJob(t, ts, `{"sim":{"bench":"xz"}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", resp.StatusCode)
	}
	// The in-flight job still completes and its result is retrievable.
	close(release)
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	final := getJob(t, ts, ji.ID)
	if final.Status != StatusDone {
		t.Fatalf("in-flight job after drain: %s", final.Status)
	}
	var out string
	if err := json.Unmarshal(final.Result, &out); err != nil || out != "drained" {
		t.Fatalf("result %s", final.Result)
	}
}

func TestJobTimeoutFails(t *testing.T) {
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	_, ts := testServer(t, Config{JobTimeout: 30 * time.Millisecond}, func(*Job) (any, error) {
		<-hang
		return nil, nil
	})
	_, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)
	final := waitDone(t, ts, ji.ID)
	if final.Status != StatusFailed || !strings.Contains(final.Error, "timed out") {
		t.Fatalf("got %s / %q, want failed timeout", final.Status, final.Error)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	s, ts := testServer(t, Config{QueueSize: 7}, func(*Job) (any, error) { return 1, nil })
	_, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)
	waitDone(t, ts, ji.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if m.Server.JobsSubmitted != 1 || m.Server.JobsCompleted != 1 || m.Server.QueueCapacity != 7 {
		t.Fatalf("metrics = %+v", m.Server)
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatalf("%s: %v", probe, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", probe, resp.StatusCode)
		}
	}
	_ = s
}

func TestJobListSummaries(t *testing.T) {
	_, ts := testServer(t, Config{}, func(*Job) (any, error) { return "big-result", nil })
	var ids []string
	for _, b := range []string{"gcc", "xz", "leela"} {
		_, _, ji := postJob(t, ts, fmt.Sprintf(`{"sim":{"bench":%q}}`, b))
		ids = append(ids, ji.ID)
	}
	for _, id := range ids {
		waitDone(t, ts, id)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list JobList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 3 {
		t.Fatalf("listed %d jobs, want 3", len(list.Jobs))
	}
	for _, ji := range list.Jobs {
		if ji.Result != nil {
			t.Fatalf("list leaked result payload for %s", ji.ID)
		}
		if !ji.Terminal() {
			t.Fatalf("job %s not terminal in list", ji.ID)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func TestHandlerPanicRecovered(t *testing.T) {
	s, ts := testServer(t, Config{}, func(*Job) (any, error) { return "ok", nil })
	// Panic while the job executes: the worker recovers it into a failed
	// job rather than killing the daemon.
	s.cfg.execOverride = func(*Job) (any, error) { panic("exec exploded") }
	_, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)
	final := waitDone(t, ts, ji.ID)
	if final.Status != StatusFailed || !strings.Contains(final.Error, "panicked") {
		t.Fatalf("job after exec panic = %s / %q", final.Status, final.Error)
	}
	if got := s.Metrics().Server.PanicsRecovered; got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
	// The server still serves normal traffic afterwards.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v / %v", resp, err)
	}
	resp.Body.Close()
}

func TestHandlerPanicReturns500JSON(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Mount a deliberately panicking route behind the same recovery
	// wrapper the real handler uses.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(s.recoverPanics(mux))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatalf("panicking handler tore down the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "kaboom") {
		t.Fatalf("500 body = %+v (err %v), want JSON mentioning the panic", eb, err)
	}
	if got := s.Metrics().Server.PanicsRecovered; got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
}

// TestLoadSheddingDegradesGracefully: above the shed threshold, expensive
// experiment jobs are rejected with 429 while single sim points still
// admit; below it, both kinds admit.
func TestLoadSheddingDegradesGracefully(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 8)
	s, ts := testServer(t, Config{Workers: 1, QueueSize: 8, ShedThreshold: 2},
		func(*Job) (any, error) { started <- struct{}{}; <-release; return "ok", nil })

	// An experiment admits while the queue is calm.
	resp, _, _ := postJob(t, ts, `{"experiment":{"name":"cost"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("calm experiment submit: %d, want 202", resp.StatusCode)
	}
	<-started // the worker holds this job; everything below queues

	// Fill the queue to the shed threshold with single points.
	for _, b := range []string{"gcc", "xz"} {
		resp, _, _ := postJob(t, ts, fmt.Sprintf(`{"sim":{"bench":%q}}`, b))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sim %s: %d, want 202", b, resp.StatusCode)
		}
	}

	// Queue depth is now at the threshold: experiments shed, sims admit.
	resp, raw, _ := postJob(t, ts, `{"experiment":{"name":"table3"}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("experiment under pressure: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if !strings.Contains(string(raw), "shedding") {
		t.Fatalf("shed body = %s", raw)
	}
	resp, _, _ = postJob(t, ts, `{"sim":{"bench":"leela"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sim under pressure: %d, want 202 (only experiments shed)", resp.StatusCode)
	}
	m := s.Metrics().Server
	if m.JobsShed != 1 || m.JobsRejected != 1 {
		t.Fatalf("metrics = %+v, want 1 shed", m)
	}
}

// TestSSEInjectedDropResumes cuts the event stream with an injected fault
// and verifies a Last-Event-ID resume observes the complete, gapless
// sequence — the degraded network path the client retries over.
func TestSSEInjectedDropResumes(t *testing.T) {
	release := make(chan struct{})
	_, ts := testServer(t, Config{
		ProgressInterval: 5 * time.Millisecond,
		Faults:           faults.New(faults.Config{Seed: 1, StreamDrop: 1.0, MaxConsecutive: 2}),
	}, func(*Job) (any, error) { <-release; return "streamed", nil })
	_, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)

	var seqs []int
	last := -1
	streamOnce := func() bool { // returns true when the terminal event arrived
		req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+ji.ID+"/events", nil)
		if last >= 0 {
			req.Header.Set("Last-Event-ID", strconv.Itoa(last))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		terminal := false
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data:") {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE payload: %v", err)
			}
			seqs = append(seqs, ev.Seq)
			last = ev.Seq
			if ev.Job.Terminal() {
				terminal = true
			}
		}
		return terminal
	}

	drops := 0
	if streamOnce() {
		t.Fatal("first stream ended terminally; the injected drop never fired")
	}
	drops++
	go func() { time.Sleep(20 * time.Millisecond); close(release) }()
	for !streamOnce() {
		drops++
		if drops > 10 {
			t.Fatal("stream never reached the terminal event")
		}
	}
	if drops < 2 {
		t.Fatalf("observed %d drops, want >= 2 (MaxConsecutive)", drops)
	}
	for i, seq := range seqs {
		if seq != i {
			t.Fatalf("event sequence has a gap or repeat at %d: %v", i, seqs)
		}
	}
}

// TestSSEHeartbeatConfigurable proves the heartbeat pace is a Config
// field, not a constant: at 20ms a short-lived stream sees pings that the
// 15s default could never produce.
func TestSSEHeartbeatConfigurable(t *testing.T) {
	release := make(chan struct{})
	_, ts := testServer(t, Config{SSEHeartbeat: 20 * time.Millisecond}, func(*Job) (any, error) {
		<-release
		return "ok", nil
	})
	_, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc"}}`)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + ji.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Let a few heartbeat intervals elapse on the idle stream, then
	// finish the job so the stream terminates.
	go func() {
		time.Sleep(150 * time.Millisecond)
		close(release)
	}()
	pings := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), ": ping") {
			pings++
		}
	}
	if pings < 2 {
		t.Fatalf("saw %d heartbeat pings on an idle 150ms stream at 20ms pace, want >= 2", pings)
	}
}

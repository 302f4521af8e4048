package server

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"hybp/internal/obs"
)

// TestMetricsProm: /metrics.prom must serve parseable Prometheus text
// covering the job, harness, and retry instruments.
func TestMetricsProm(t *testing.T) {
	_, ts := testServer(t, Config{}, func(*Job) (any, error) { return "ok", nil })
	_, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc","mech":"hybp"}}`)
	waitDone(t, ts, ji.ID)

	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"hybp_jobs_submitted_total 1",
		"hybp_jobs_completed_total 1",
		"# TYPE hybp_job_latency_ms histogram",
		`hybp_job_latency_ms_bucket{le="+Inf"} 1`,
		"hybp_job_latency_ms_count 1",
		"hybp_cache_disk_hits_total",
		"hybp_retry_total",
		"hybp_harness_submitted_total",
		"hybp_sim_cycles_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in exposition:\n%s", want, text)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	var latency []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		if strings.HasPrefix(fields[0], "hybp_job_latency_ms_bucket{") {
			latency = append(latency, line)
		}
	}
	// The latency buckets are cumulative: counts never decrease, and the
	// last one is the +Inf bucket holding every observation.
	if len(latency) < 2 {
		t.Fatalf("latency histogram has %d buckets, want several", len(latency))
	}
	prev := 0.0
	for _, line := range latency {
		n, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
		if err != nil {
			t.Fatalf("bucket %q: %v", line, err)
		}
		if n < prev {
			t.Fatalf("bucket counts not cumulative: %q", latency)
		}
		prev = n
	}
	if last := latency[len(latency)-1]; !strings.Contains(last, `le="+Inf"`) || prev != 1 {
		t.Fatalf("last latency bucket %q, want +Inf with count 1", last)
	}
}

// TestDebugTraceEndpoint: a traced server must serve its span ring as
// valid Chrome trace-event JSON, with the submit-side request span and the
// job-execution span on the same trace (header propagation through
// handleSubmit into the queued job).
func TestDebugTraceEndpoint(t *testing.T) {
	tracer := obs.NewTracer("hybpd-test", 1024)
	_, ts := testServer(t, Config{Tracer: tracer}, func(*Job) (any, error) { return "ok", nil })
	_, _, ji := postJob(t, ts, `{"sim":{"bench":"gcc","mech":"hybp"}}`)
	waitDone(t, ts, ji.ID)

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateChromeTrace(body)
	if err != nil {
		t.Fatalf("invalid chrome trace: %v\n%s", err, body)
	}
	if n == 0 {
		t.Fatal("empty trace after a traced job")
	}

	recs := tracer.Snapshot()
	var submitReq, job *obs.Record
	for i := range recs {
		switch recs[i].Name {
		case "http.request":
			for _, a := range recs[i].Attrs {
				if a.Key == "path" && a.Str == "/v1/jobs" {
					submitReq = &recs[i]
				}
			}
		case "server.job":
			job = &recs[i]
		}
	}
	if submitReq == nil || job == nil {
		t.Fatalf("missing spans: submitReq=%v job=%v (have %d records)", submitReq, job, len(recs))
	}
	if job.Trace != submitReq.Trace {
		t.Errorf("server.job trace %s != submit request trace %s", job.Trace, submitReq.Trace)
	}
	if job.Parent != submitReq.Span {
		t.Errorf("server.job parent %s != submit request span %s", job.Parent, submitReq.Span)
	}
}

// TestDebugTraceUntraced: without a Tracer the endpoint still answers a
// valid, empty trace rather than erroring.
func TestDebugTraceUntraced(t *testing.T) {
	_, ts := testServer(t, Config{}, func(*Job) (any, error) { return "ok", nil })
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateChromeTrace(body); err != nil || n != 0 {
		t.Fatalf("want valid empty trace, got n=%d err=%v", n, err)
	}
}

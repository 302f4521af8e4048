package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"hybp/internal/harness"
	"hybp/internal/obs"
)

// TestDistributedTraceParenting is the observability e2e: a sweep span on
// the coordinator, jobs offered through the harness to real Workers over
// HTTP, and the resulting single trace must chain
//
//	sweep → harness.job → cluster.remote → worker.point
//
// with the worker-side spans (recorded by a different Tracer in what is
// normally a different process) ingested into the coordinator's ring via
// the result upload.
func TestDistributedTraceParenting(t *testing.T) {
	tracer := obs.NewTracer("coordinator", 1024)

	coord, srv := newTestCoord(t, Options{
		LeaseTTL:       10 * time.Second,
		MinWorkers:     3,
		MinWorkersWait: 30 * time.Second,
		Tracer:         tracer,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const nWorkers = 3
	stopped := make(chan error, nWorkers)
	for i := 0; i < nWorkers; i++ {
		w, err := NewWorker(WorkerOptions{
			Coordinator: srv.URL,
			Name:        fmt.Sprintf("trace-%d", i),
			Jobs:        2,
			Tracer:      obs.NewTracer(fmt.Sprintf("worker-%d", i), 256),
			Exec: func(key string, spec json.RawMessage) (json.RawMessage, error) {
				return json.Marshal(map[string]string{"key": key})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { stopped <- w.Run(ctx) }()
	}

	sweepCtx, sweep := tracer.StartRoot("sweep")
	h, err := harness.New(harness.Options{
		Workers:  4,
		Remote:   coord,
		Tracer:   tracer,
		TraceCtx: sweepCtx,
	})
	if err != nil {
		t.Fatal(err)
	}
	const nJobs = 6
	for i := 0; i < nJobs; i++ {
		key := fmt.Sprintf("trace-job-%d", i)
		harness.SubmitSpec(h, key, json.RawMessage(`{"i":`+fmt.Sprint(i)+`}`),
			func() json.RawMessage { return json.RawMessage(`{}`) })
	}
	h.Wait()
	sweep.End()
	if st := h.Stats(); st.Remote != nJobs {
		t.Fatalf("jobs did not resolve remotely: %+v", st)
	}

	// Index the one ring by span ID; every record must share the sweep's
	// trace ID.
	recs := tracer.Snapshot()
	byID := map[string]obs.Record{}
	sweepSC := sweep.Context()
	for _, r := range recs {
		if r.Trace != sweepSC.Trace {
			t.Fatalf("record %s/%s off-trace: trace %s, want %s", r.Name, r.Span, r.Trace, sweepSC.Trace)
		}
		byID[r.Span] = r
	}

	count := map[string]int{}
	for _, r := range recs {
		count[r.Name]++
		switch r.Name {
		case "sweep":
			if r.Parent != "" {
				t.Errorf("sweep has parent %q", r.Parent)
			}
		case "harness.job":
			if r.Parent != sweepSC.Span {
				t.Errorf("harness.job %s parent = %q, want sweep %q", r.Span, r.Parent, sweepSC.Span)
			}
		case "cluster.remote":
			if p, ok := byID[r.Parent]; !ok || p.Name != "harness.job" {
				t.Errorf("cluster.remote %s parent %q is not a harness.job span", r.Span, r.Parent)
			}
		case "worker.point":
			p, ok := byID[r.Parent]
			if !ok || p.Name != "cluster.remote" {
				t.Errorf("worker.point %s parent %q is not a cluster.remote span", r.Span, r.Parent)
			}
			if r.Proc == "coordinator" || r.Proc == "" {
				t.Errorf("worker.point %s proc = %q, want a worker process label", r.Span, r.Proc)
			}
		}
	}
	for _, name := range []string{"harness.job", "cluster.remote", "worker.point"} {
		if count[name] != nJobs {
			t.Errorf("%s spans = %d, want %d (counts: %v)", name, count[name], nJobs, count)
		}
	}
	if count["sweep"] != 1 {
		t.Errorf("sweep spans = %d, want 1", count["sweep"])
	}

	// The stitched trace must export as valid Chrome trace-event JSON with
	// every span present.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if n, err := obs.ValidateChromeTrace(buf.Bytes()); err != nil || n != len(recs) {
		t.Fatalf("chrome export: %d spans, err %v (want %d)", n, err, len(recs))
	}

	cancel()
	for i := 0; i < nWorkers; i++ {
		select {
		case <-stopped:
		case <-time.After(15 * time.Second):
			t.Fatal("worker did not stop")
		}
	}
}

package server

import (
	"encoding/json"
	"sync"
	"time"

	"hybp/internal/obs"
)

// Job is one admitted, content-addressed unit of work. Its lifecycle is an
// append-only event log (queued → running → progress* → done|failed); the
// SSE handler replays the log and then follows live appends, so every
// subscriber — however late — observes the same strictly ordered stream.
type Job struct {
	id  string
	key string
	req JobRequest
	// traceSC is the submitting request's span context; the execution
	// span opened later in runJob parents under it so the client's trace
	// covers queue wait and execution, not just the POST.
	traceSC obs.SpanContext
	// epoch stamps every event this job emits (the server's recovery
	// epoch at creation/restore time); sink, when set, durably journals an
	// event before it becomes visible to any subscriber. Both are fixed at
	// construction, before the job is shared.
	epoch int
	sink  func(first *JobRequest, ev Event)

	mu      sync.Mutex
	info    JobInfo
	events  []Event
	nextSeq int
	// updated is closed and replaced on every append; waiters re-arm by
	// re-reading it under the lock.
	updated chan struct{}
}

func newJob(id, key string, req JobRequest, epoch int, sink func(*JobRequest, Event)) *Job {
	j := &Job{
		id:      id,
		key:     key,
		req:     req,
		epoch:   epoch,
		sink:    sink,
		updated: make(chan struct{}),
	}
	j.info = JobInfo{
		ID:        id,
		Key:       key,
		Kind:      req.Kind,
		Status:    StatusQueued,
		Submits:   1,
		CreatedMS: nowMS(),
	}
	j.appendLocked(StatusQueued, nil)
	return j
}

// restoreJob rebuilds a job from its replayed event log. The log is a
// dense prefix (seq 0..n-1); the last event's JobInfo snapshot is the
// job's current state — including the result, for terminal jobs. Replayed
// events are NOT re-journaled (they are already on disk); only events the
// job emits from here on flow through sink, stamped with the new epoch.
func restoreJob(req JobRequest, events []Event, epoch int, sink func(*JobRequest, Event)) *Job {
	last := events[len(events)-1]
	return &Job{
		id:      last.Job.ID,
		key:     last.Job.Key,
		req:     req,
		epoch:   epoch,
		sink:    sink,
		info:    last.Job,
		events:  events,
		nextSeq: len(events),
		updated: make(chan struct{}),
	}
}

func nowMS() int64 { return time.Now().UnixMilli() }

// Info snapshots the job for API responses.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// Summary is Info without the (possibly large) result payload — what the
// jobs list returns.
func (j *Job) Summary() JobInfo {
	ji := j.Info()
	ji.Result = nil
	return ji
}

// resubmit records that another POST mapped onto this job.
func (j *Job) resubmit() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.info.Submits++
	ji := j.info
	ji.Deduped = true
	return ji
}

// start transitions queued → running.
func (j *Job) start() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.info.Status = StatusRunning
	j.info.StartedMS = nowMS()
	j.appendLocked(StatusRunning, nil)
}

// progress emits a live progress event; it is a no-op once terminal.
func (j *Job) progress(p ProgressInfo) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.info.Status != StatusRunning {
		return
	}
	j.appendLocked("progress", &p)
}

// finish resolves the job with a result or an error, finished at
// finishedMS (unix milliseconds).
func (j *Job) finish(result json.RawMessage, err error, finishedMS int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.info.FinishedMS = finishedMS
	if err != nil {
		j.info.Status = StatusFailed
		j.info.Error = err.Error()
		j.appendLocked(StatusFailed, nil)
		return
	}
	j.info.Status = StatusDone
	j.info.Result = result
	j.appendLocked(StatusDone, nil)
}

// appendLocked appends an event snapshot and wakes every waiter. Progress
// snapshots omit the result payload (it does not exist yet); terminal
// events carry it so an SSE consumer needs no follow-up GET.
//
// With a sink installed, the event is journaled — durably, the sink blocks
// on fsync — before it is appended to memory or any waiter wakes: nothing
// is acknowledged or streamed that a crash could un-happen. The job's
// first event additionally carries the request, so replay can re-execute.
func (j *Job) appendLocked(typ string, p *ProgressInfo) {
	ev := Event{Seq: j.nextSeq, Epoch: j.epoch, Type: typ, Job: j.info, Progress: p}
	if j.sink != nil {
		var first *JobRequest
		if ev.Seq == 0 {
			first = &j.req
		}
		j.sink(first, ev)
	}
	j.nextSeq++
	j.events = append(j.events, ev)
	close(j.updated)
	j.updated = make(chan struct{})
}

// checkpointRecords snapshots the job's full event log as journal records
// for a compaction checkpoint — a durable restatement that supersedes the
// job's records in older segments.
func (j *Job) checkpointRecords() [][]byte {
	j.mu.Lock()
	evs := make([]Event, len(j.events))
	copy(evs, j.events)
	req := j.req
	j.mu.Unlock()
	out := make([][]byte, 0, len(evs))
	for i := range evs {
		r := jrec{T: recEvent, Ev: &evs[i]}
		if evs[i].Seq == 0 {
			r.Req = &req
		}
		b, err := json.Marshal(r)
		if err != nil {
			continue
		}
		out = append(out, b)
	}
	return out
}

// eventsSince returns the events after seq (i.e. with Seq > seq), plus a
// channel that is closed when more arrive and whether the log is terminal.
// The returned slice is safe to read: events are immutable once appended.
func (j *Job) eventsSince(seq int) (evs []Event, more <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Seq values are dense (0,1,2,...), so the slice index is seq+1.
	if from := seq + 1; from < len(j.events) {
		evs = j.events[from:]
	}
	return evs, j.updated, j.info.Status == StatusDone || j.info.Status == StatusFailed
}

// Package client is the Go client for the hybpd simulation service: job
// submission and retrieval with full retry/backoff over every transient
// failure class — 429 backpressure (honoring Retry-After), 5xx responses,
// and transport errors like connection resets — plus SSE progress
// streaming with a polling fallback. Retries are safe by construction:
// jobs are content-addressed, so a resubmitted POST coalesces onto the
// same job instead of duplicating work.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"hybp/internal/obs"
	"hybp/internal/server"
)

// Client talks to one hybpd base URL. The zero retry/poll settings take
// the documented defaults; HTTPClient defaults to a fresh http.Client
// without a global timeout (SSE streams outlive any fixed deadline — use
// contexts to bound individual calls).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (httptest servers inject theirs;
	// chaos tests wrap it in a faults.Transport).
	HTTPClient *http.Client
	// MaxRetries bounds retries of retryable failures — 429, 5xx, and
	// transport errors — per call (default 8). 429 sleeps the server's
	// Retry-After; everything else backs off exponentially from RetryBase
	// (default 100ms) capped at RetryMax (default 5s).
	MaxRetries int
	RetryBase  time.Duration
	RetryMax   time.Duration
	// PollInterval paces Wait's polling fallback (default 200ms).
	PollInterval time.Duration
	// Counters, when non-nil, tallies retries by failure class — the load
	// generator reads it to report how degraded a run was.
	Counters *Counters
	// Tracer, when non-nil, records client-side spans and propagates span
	// context to the server in X-Hybp-* headers, so a traced hybpd stitches
	// the client's submit into the same trace as its own handling. nil is
	// free.
	Tracer *obs.Tracer
}

// Counters aggregates retry activity across a Client's calls. All fields
// are atomically updated; read them with Load.
type Counters struct {
	Retries429       atomic.Int64
	Retries5xx       atomic.Int64
	RetriesTransport atomic.Int64
}

// Total is the number of retries across all classes.
func (c *Counters) Total() int64 {
	return c.Retries429.Load() + c.Retries5xx.Load() + c.RetriesTransport.Load()
}

// Classify buckets an error for breakdown reporting: "429", "5xx",
// "timeout", "conn-reset", or "other" (nil returns ""). Wrapped errors
// classify through errors.As/Is; injected resets match by message, the
// same way operators grep for real ones.
func Classify(err error) string {
	if err == nil {
		return ""
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		switch {
		case apiErr.Status == http.StatusTooManyRequests:
			return "429"
		case apiErr.Status >= 500:
			return "5xx"
		}
		return "other"
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "timeout"
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return "timeout"
	}
	if strings.Contains(err.Error(), "connection reset") ||
		strings.Contains(err.Error(), "broken pipe") ||
		errors.Is(err, io.ErrUnexpectedEOF) {
		return "conn-reset"
	}
	return "other"
}

// New builds a client for the base URL.
func New(base string) *Client {
	return &Client{BaseURL: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return &http.Client{}
}

// APIError is any non-2xx response.
type APIError struct {
	Status int
	// RetryAfter is the server's backoff hint on 429, zero otherwise.
	RetryAfter time.Duration
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d: %s", e.Status, e.Message)
}

// IsRetryable reports whether the response class is worth retrying: 429
// admission rejections and 5xx server-side failures (including 503 drains,
// which resolve when the replacement process comes up).
func (e *APIError) IsRetryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

func decodeError(resp *http.Response) error {
	var body server.ErrorBody
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	apiErr := &APIError{Status: resp.StatusCode, Message: msg}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		apiErr.RetryAfter = time.Duration(secs) * time.Second
	}
	return apiErr
}

// Submit POSTs a job config, retrying every transient failure class: 429
// (sleeping the server's Retry-After, cooperating with backpressure), 5xx
// (a recovered handler panic, a mid-drain 503), and transport errors (a
// dropped or reset connection). Retrying the POST is safe because configs
// are content-addressed — a replay coalesces onto the job the lost
// response already created. The returned info's Deduped field reports
// whether the config coalesced onto an existing job.
func (c *Client) Submit(ctx context.Context, req server.JobRequest) (server.JobInfo, error) {
	ctx, span := c.Tracer.Start(ctx, "client.submit")
	defer span.End()
	var ji server.JobInfo
	err := c.withRetry(ctx, "submit", func() error {
		var err error
		ji, err = c.submitOnce(ctx, req)
		return err
	})
	if err != nil {
		span.SetErr(err)
		return server.JobInfo{}, err
	}
	span.SetString("job", ji.ID)
	return ji, nil
}

func (c *Client) maxRetries() int {
	if c.MaxRetries > 0 {
		return c.MaxRetries
	}
	return 8
}

// withRetry drives fn until success, a permanent failure, a context end,
// or the retry bound. Backoff is exponential with a ±25% spread derived
// from the attempt number; a 429's Retry-After always wins, because the
// server knows its queue better than any client-side schedule.
func (c *Client) withRetry(ctx context.Context, what string, fn func() error) error {
	retries := c.maxRetries()
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxB := c.RetryMax
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			return nil
		}
		lastErr = err
		backoff := base << min(attempt, 30)
		if backoff > maxB || backoff <= 0 {
			backoff = maxB
		}
		var apiErr *APIError
		switch {
		case errors.As(err, &apiErr):
			if !apiErr.IsRetryable() {
				return err // 4xx other than 429: the request itself is wrong
			}
			if apiErr.Status == http.StatusTooManyRequests {
				c.count(func(k *Counters) *atomic.Int64 { return &k.Retries429 })
				if apiErr.RetryAfter > 0 {
					backoff = apiErr.RetryAfter
				}
			} else {
				c.count(func(k *Counters) *atomic.Int64 { return &k.Retries5xx })
			}
		case ctx.Err() != nil:
			return err // the caller's deadline, not a server failure
		default:
			// Transport-level: reset, refused, torn body. Safe to retry —
			// GETs are idempotent and POSTs are content-addressed.
			c.count(func(k *Counters) *atomic.Int64 { return &k.RetriesTransport })
		}
		if attempt >= retries {
			return fmt.Errorf("%s: gave up after %d retries: %w", what, retries, lastErr)
		}
		// Spread concurrent clients ±25% around the base so a herd blocked
		// on one outage doesn't return in lockstep.
		jitter := time.Duration(int64(backoff) / 4 * int64(attempt%3-1))
		select {
		case <-time.After(backoff + jitter):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (c *Client) count(sel func(*Counters) *atomic.Int64) {
	if c.Counters != nil {
		sel(c.Counters).Add(1)
	}
}

func (c *Client) submitOnce(ctx context.Context, req server.JobRequest) (server.JobInfo, error) {
	var ji server.JobInfo
	b, err := json.Marshal(req)
	if err != nil {
		return ji, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(b))
	if err != nil {
		return ji, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	obs.InjectHTTP(ctx, hreq.Header)
	resp, err := c.http().Do(hreq)
	if err != nil {
		return ji, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return ji, decodeError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&ji)
	return ji, err
}

// Get fetches one job, result included once done.
func (c *Client) Get(ctx context.Context, id string) (server.JobInfo, error) {
	var ji server.JobInfo
	err := c.getJSON(ctx, "/v1/jobs/"+id, &ji)
	return ji, err
}

// List fetches the job index (no result payloads).
func (c *Client) List(ctx context.Context) ([]server.JobInfo, error) {
	var list server.JobList
	err := c.getJSON(ctx, "/v1/jobs", &list)
	return list.Jobs, err
}

// Metrics fetches the server's observability snapshot.
func (c *Client) Metrics(ctx context.Context) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	err := c.getJSON(ctx, "/metrics", &m)
	return m, err
}

// Ready probes /readyz.
func (c *Client) Ready(ctx context.Context) error {
	return c.getJSON(ctx, "/readyz", nil)
}

// getJSON GETs path with the full retry policy — GETs are idempotent, so
// every transient failure class is fair game.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	return c.withRetry(ctx, "GET "+path, func() error {
		return c.getJSONOnce(ctx, path, out)
	})
}

func (c *Client) getJSONOnce(ctx context.Context, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	obs.InjectHTTP(ctx, hreq.Header)
	resp, err := c.http().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Stream subscribes to a job's SSE feed and calls fn for every event,
// starting from the beginning of the job's log (or after lastSeq when
// >= 0, via Last-Event-ID). It returns when fn returns false, the stream
// ends, or ctx is done.
func (c *Client) Stream(ctx context.Context, id string, lastSeq int, fn func(server.Event) bool) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	hreq.Header.Set("Accept", "text/event-stream")
	obs.InjectHTTP(ctx, hreq.Header)
	if lastSeq >= 0 {
		hreq.Header.Set("Last-Event-ID", strconv.Itoa(lastSeq))
	}
	resp, err := c.http().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4<<20)
	var data strings.Builder
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if data.Len() > 0 {
				var ev server.Event
				if err := json.Unmarshal([]byte(data.String()), &ev); err != nil {
					return fmt.Errorf("bad SSE payload: %w", err)
				}
				data.Reset()
				if !fn(ev) {
					return nil
				}
			}
		case strings.HasPrefix(line, "data:"):
			data.WriteString(strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " "))
		case strings.HasPrefix(line, ":"):
			// heartbeat comment
		}
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	return ctx.Err()
}

// Follow streams a job's events like Stream, but survives disconnects and
// server restarts: whenever the stream drops without a terminal event — a
// connection reset, a drain, the daemon killed outright — it reconnects
// with Last-Event-ID set to the last seq it delivered, so a journal-backed
// server (hybpd -journal) resumes the feed exactly where it left off. fn
// (which may be nil) sees each event at most once, in seq order, across
// every reconnect. Follow returns the job's terminal info; if fn returns
// false it stops early and returns the info from the last event. A
// non-retryable API error — e.g. 404 from a server restarted without a
// journal — returns immediately. Consecutive reconnects without progress
// are bounded by MaxRetries.
func (c *Client) Follow(ctx context.Context, id string, lastSeq int, fn func(server.Event) bool) (server.JobInfo, error) {
	ctx, span := c.Tracer.Start(ctx, "client.follow")
	defer span.End()
	base := c.RetryBase
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxB := c.RetryMax
	if maxB <= 0 {
		maxB = 5 * time.Second
	}
	retries := c.maxRetries()
	last := lastSeq
	failures := 0
	for {
		var final server.JobInfo
		done := false
		err := c.Stream(ctx, id, last, func(ev server.Event) bool {
			if last >= 0 && ev.Seq <= last {
				return true // replayed after a raced reconnect; already delivered
			}
			last = ev.Seq
			failures = 0 // progress restores the reconnect budget
			if fn != nil && !fn(ev) {
				final, done = ev.Job, true
				return false
			}
			if ev.Job.Terminal() {
				final, done = ev.Job, true
				return false
			}
			return true
		})
		if done {
			span.SetString("job", final.ID)
			return final, nil
		}
		if ctx.Err() != nil {
			return server.JobInfo{}, ctx.Err()
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) && !apiErr.IsRetryable() {
			span.SetErr(err)
			return server.JobInfo{}, err
		}
		// The stream may have ended cleanly because the job finished at or
		// before our resume point; check once before treating it as a drop.
		if ji, gerr := c.Get(ctx, id); gerr == nil && ji.Terminal() {
			span.SetString("job", ji.ID)
			return ji, nil
		}
		failures++
		if failures > retries {
			if err == nil {
				err = errors.New("stream ended without a terminal event")
			}
			return server.JobInfo{}, fmt.Errorf("follow %s: gave up after %d reconnects: %w", id, retries, err)
		}
		c.count(func(k *Counters) *atomic.Int64 { return &k.RetriesTransport })
		backoff := base << min(failures-1, 30)
		if backoff > maxB || backoff <= 0 {
			backoff = maxB
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return server.JobInfo{}, ctx.Err()
		}
	}
}

// Wait blocks until the job reaches a terminal state and returns its final
// info. It prefers the SSE stream (live, ordered); if streaming fails or
// ends without a terminal event — e.g. across a server drain — it falls
// back to polling.
func (c *Client) Wait(ctx context.Context, id string) (server.JobInfo, error) {
	var final server.JobInfo
	got := false
	err := c.Stream(ctx, id, -1, func(ev server.Event) bool {
		if ev.Job.Terminal() {
			final, got = ev.Job, true
			return false
		}
		return true
	})
	if got {
		return final, nil
	}
	if err != nil && ctx.Err() != nil {
		return server.JobInfo{}, err
	}
	// Polling fallback.
	interval := c.PollInterval
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	for {
		ji, err := c.Get(ctx, id)
		if err != nil {
			return server.JobInfo{}, err
		}
		if ji.Terminal() {
			return ji, nil
		}
		select {
		case <-time.After(interval):
		case <-ctx.Done():
			return server.JobInfo{}, ctx.Err()
		}
	}
}

// Run is Submit followed by Wait.
func (c *Client) Run(ctx context.Context, req server.JobRequest) (server.JobInfo, error) {
	ctx, span := c.Tracer.Start(ctx, "client.run")
	defer span.End()
	ji, err := c.Submit(ctx, req)
	if err != nil {
		return server.JobInfo{}, err
	}
	if ji.Terminal() {
		return ji, nil
	}
	// A deduped submission may omit the result payload freshness; Wait
	// fetches the terminal state either way.
	final, err := c.Wait(ctx, ji.ID)
	if err != nil {
		return server.JobInfo{}, err
	}
	return final, nil
}

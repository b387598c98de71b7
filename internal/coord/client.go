package coord

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
)

// Client speaks the coordinator's HTTP protocol: the submit/observe side
// for sweep clients, the register/lease/push side for workers.
type Client struct {
	// BaseURL is the coordinator's root URL, e.g. "http://host:8337".
	BaseURL string
	// HTTPClient defaults to a client without a global timeout (lease
	// long-polls and SSE streams are deliberately long requests).
	HTTPClient *http.Client
}

// send performs one request. A non-2xx response maps to an error
// carrying the server's message (404 to the sentinel the path implies,
// so callers can react to a dropped registration).
func (cl *Client) send(ctx context.Context, method, path string, body []byte, notFound error) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(cl.BaseURL, "/")+path, rd)
	if err != nil {
		return nil, fmt.Errorf("coord: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cmp.Or(cl.HTTPClient, http.DefaultClient).Do(req)
	if err != nil {
		return nil, fmt.Errorf("coord: %s %s: %w", method, path, err)
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, MaxJSONBody))
	if resp.StatusCode == http.StatusNotFound && notFound != nil {
		return nil, fmt.Errorf("%w: %s", notFound, strings.TrimSpace(string(msg)))
	}
	return nil, fmt.Errorf("coord: %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
}

// do performs one request and returns the response body.
func (cl *Client) do(ctx context.Context, method, path string, body []byte, notFound error) ([]byte, error) {
	resp, err := cl.send(ctx, method, path, body, notFound)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var data []byte
	if n := resp.ContentLength; n >= 0 && n <= MaxResultBody {
		// A declared length (a merged result): one exact-size buffer.
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(io.LimitReader(resp.Body, MaxResultBody+1))
	}
	if err != nil {
		return nil, fmt.Errorf("coord: %s %s: %w", method, path, err)
	}
	return data, nil
}

// call performs one request and decodes its JSON response into resp,
// unless resp is nil.
func (cl *Client) call(ctx context.Context, method, path string, body []byte, resp any, notFound error) error {
	data, err := cl.do(ctx, method, path, body, notFound)
	if err != nil || resp == nil {
		return err
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("coord: decode response: %w", err)
	}
	return nil
}

func (cl *Client) postJSON(ctx context.Context, path string, req, resp any, notFound error) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	return cl.call(ctx, http.MethodPost, path, body, resp, notFound)
}

// Register announces a worker and returns its assigned identity.
func (cl *Client) Register(ctx context.Context, name string) (*RegisterResponse, error) {
	var resp RegisterResponse
	if err := cl.postJSON(ctx, "/api/v1/workers", RegisterRequest{Name: name}, &resp, nil); err != nil {
		return nil, err
	}
	if resp.WorkerID == "" {
		return nil, fmt.Errorf("coord: register: empty worker id")
	}
	return &resp, nil
}

// Heartbeat refreshes a registration; ErrUnknownWorker means the
// coordinator dropped it (or restarted) and the worker must re-register.
func (cl *Client) Heartbeat(ctx context.Context, workerID string) error {
	return cl.postJSON(ctx, "/api/v1/workers/"+workerID+"/heartbeat", HeartbeatRequest{WorkerID: workerID}, nil, ErrUnknownWorker)
}

// Lease asks for one unit of work, long-polling up to wait. A nil lease
// with nil error means no work was available.
func (cl *Client) Lease(ctx context.Context, workerID string, wait time.Duration) (*Lease, error) {
	var resp LeaseResponse
	err := cl.postJSON(ctx, "/api/v1/lease",
		LeaseRequest{WorkerID: workerID, WaitMillis: wait.Milliseconds()}, &resp, ErrUnknownWorker)
	if err != nil {
		return nil, err
	}
	if resp.Lease != nil {
		if err := resp.Lease.Validate(); err != nil {
			return nil, err
		}
	}
	return resp.Lease, nil
}

// Submit submits a sweep and returns its run id.
func (cl *Client) Submit(ctx context.Context, req SubmitRequest) (string, error) {
	var resp SubmitResponse
	if err := cl.postJSON(ctx, "/api/v1/runs", req, &resp, nil); err != nil {
		return "", err
	}
	if resp.RunID == "" {
		return "", fmt.Errorf("coord: submit: empty run id")
	}
	return resp.RunID, nil
}

// Push delivers a computed result file for a leased unit.
func (cl *Client) Push(ctx context.Context, l *Lease, workerID string, data []byte) (*PushResponse, error) {
	path := fmt.Sprintf("/api/v1/runs/%s/units/%d/result?worker=%s&attempt=%d", l.RunID, l.Unit, workerID, l.Attempt)
	var resp PushResponse
	if err := cl.call(ctx, http.MethodPost, path, data, &resp, ErrUnknownRun); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ReportFail reports a failed attempt at a leased unit.
func (cl *Client) ReportFail(ctx context.Context, l *Lease, workerID, msg string) error {
	path := fmt.Sprintf("/api/v1/runs/%s/units/%d/fail", l.RunID, l.Unit)
	return cl.postJSON(ctx, path,
		FailRequest{WorkerID: workerID, Attempt: l.Attempt, Error: truncateErr(msg)}, nil, ErrUnknownRun)
}

// Runs lists the coordinator's runs.
func (cl *Client) Runs(ctx context.Context) ([]RunStatus, error) {
	var resp RunsResponse
	if err := cl.call(ctx, http.MethodGet, "/api/v1/runs", nil, &resp, nil); err != nil {
		return nil, err
	}
	return resp.Runs, nil
}

// Run fetches one run's status.
func (cl *Client) Run(ctx context.Context, runID string) (*RunStatus, error) {
	var st RunStatus
	if err := cl.call(ctx, http.MethodGet, "/api/v1/runs/"+runID, nil, &st, ErrUnknownRun); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches a merged run's shard-file bytes.
func (cl *Client) Result(ctx context.Context, runID string) ([]byte, error) {
	return cl.do(ctx, http.MethodGet, "/api/v1/runs/"+runID+"/result", nil, ErrUnknownRun)
}

// Events streams a run's progress events (history, then live) to fn
// until the run reaches its terminal state, the stream drops, or ctx is
// done. It returns nil when the server ended the stream.
func (cl *Client) Events(ctx context.Context, runID string, fn func(dispatch.ProgressEvent)) error {
	resp, err := cl.send(ctx, http.MethodGet, "/api/v1/runs/"+runID+"/events", nil, ErrUnknownRun)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), MaxJSONBody)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e dispatch.ProgressEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			return fmt.Errorf("coord: events: %w", err)
		}
		fn(e)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("coord: events: %w", err)
	}
	return nil
}

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// ScratchDir holds the worker's local result files before they are
	// pushed (default: a fresh temp directory, removed on return).
	ScratchDir string
	// HeartbeatEvery overrides the server-suggested heartbeat interval.
	// Production workers leave it 0; coordtest uses it to inject
	// clock-skewed heartbeats.
	HeartbeatEvery time.Duration
	// LeaseWait is the lease long-poll duration (default 2s).
	LeaseWait time.Duration
	// Logf receives the worker's log lines (default: discard).
	Logf func(format string, args ...any)
	// Push, when non-nil, intercepts result delivery: it receives the
	// lease and a function that performs one push, and decides how many
	// times (if at all) to call it. The fault-injection seam coordtest
	// uses for dropped and duplicated pushes; nil pushes exactly once.
	Push func(l *Lease, push func() (*PushResponse, error)) error
}

// session tracks the worker's current registration; heartbeats and the
// lease loop share it and either may re-register after the coordinator
// drops (or forgets, across a restart) the previous identity.
type session struct {
	cl   *Client
	name string
	mu   sync.Mutex
	id   string
	hb   time.Duration
}

// current returns the registration, creating one if needed.
func (s *session) current(ctx context.Context) (string, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.id != "" {
		return s.id, s.hb, nil
	}
	resp, err := s.cl.Register(ctx, s.name)
	if err != nil {
		return "", 0, err
	}
	s.id = resp.WorkerID
	s.hb = time.Duration(resp.HeartbeatMillis) * time.Millisecond
	if s.hb <= 0 {
		s.hb = time.Second
	}
	return s.id, s.hb, nil
}

// drop forgets a registration the coordinator no longer honours.
func (s *session) drop(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.id == id {
		s.id = ""
	}
}

// RunWorker runs a worker loop against a coordinator: register,
// heartbeat, lease units, compute them through w — any dispatch.Worker,
// so the subprocess workers of `ioschedbench dispatch` serve a
// coordinator unchanged — and push the result files back. It returns
// when ctx is cancelled. Compute failures are reported to the
// coordinator and the loop continues; a cancelled ctx mid-compute
// abandons the unit silently (exactly what a crashed worker would do —
// the coordinator's heartbeat timeout reassigns it). A w with a
// Release method (dispatch.LocalProcWorker) has it called on return.
func RunWorker(ctx context.Context, cl *Client, name string, w dispatch.Worker, opts WorkerOptions) error {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if opts.LeaseWait <= 0 {
		opts.LeaseWait = 2 * time.Second
	}
	scratch := opts.ScratchDir
	if scratch == "" {
		dir, err := os.MkdirTemp("", "coordworker-*")
		if err != nil {
			return fmt.Errorf("coord: %w", err)
		}
		defer os.RemoveAll(dir)
		scratch = dir
	}
	if r, ok := w.(interface{ Release() }); ok {
		// A worker keeping warm children (dispatch.LocalProcWorker) ends
		// them when the loop returns.
		defer r.Release()
	}
	s := &session{cl: cl, name: name}
	id, hb, err := s.current(ctx)
	if err != nil {
		return err
	}
	logf("worker %s: registered as %s", name, id)

	hctx, hcancel := context.WithCancel(ctx)
	defer hcancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		heartbeatLoop(hctx, s, opts.HeartbeatEvery, hb, logf)
	}()
	defer wg.Wait()

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		id, _, err := s.current(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			logf("worker %s: register: %v", name, err)
			if !sleepCtx(ctx, time.Second) {
				return ctx.Err()
			}
			continue
		}
		l, err := cl.Lease(ctx, id, opts.LeaseWait)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrUnknownWorker) {
				s.drop(id)
				continue
			}
			logf("worker %s: lease: %v", name, err)
			if !sleepCtx(ctx, time.Second) {
				return ctx.Err()
			}
			continue
		}
		if l == nil {
			continue
		}
		runLease(ctx, cl, s, w, l, id, scratch, opts, logf)
	}
}

// runLease computes one leased unit and delivers the result.
func runLease(ctx context.Context, cl *Client, s *session, w dispatch.Worker, l *Lease, workerID, scratch string, opts WorkerOptions, logf func(string, ...any)) {
	out := filepath.Join(scratch, fmt.Sprintf("%s-u%d-a%d.json", l.RunID, l.Unit, l.Attempt))
	os.Remove(out)
	defer os.Remove(out)
	task := dispatch.Task{
		Spec:  dispatch.Spec{Selection: l.Selection, Params: l.Params, Shards: l.Shards},
		Index: l.Index, Cells: l.Cells, Out: out,
	}
	logf("worker %s: unit %d of %s (attempt %d)", w.Name(), l.Unit, l.RunID, l.Attempt)
	if err := w.Run(ctx, task); err != nil {
		if ctx.Err() != nil {
			return // dying mid-unit: no report, like a real crash
		}
		logf("worker %s: unit %d of %s: %v", w.Name(), l.Unit, l.RunID, err)
		if rerr := cl.ReportFail(ctx, l, workerID, err.Error()); rerr != nil {
			logf("worker %s: report fail: %v", w.Name(), rerr)
		}
		return
	}
	data, err := os.ReadFile(out)
	if err != nil {
		if ctx.Err() != nil {
			return
		}
		if rerr := cl.ReportFail(ctx, l, workerID, fmt.Sprintf("worker produced no output: %v", err)); rerr != nil {
			logf("worker %s: report fail: %v", w.Name(), rerr)
		}
		return
	}
	push := func() (*PushResponse, error) { return cl.Push(ctx, l, workerID, data) }
	if opts.Push != nil {
		if err := opts.Push(l, push); err != nil && ctx.Err() == nil {
			logf("worker %s: push unit %d of %s: %v", w.Name(), l.Unit, l.RunID, err)
		}
		return
	}
	resp, err := push()
	switch {
	case err != nil:
		if ctx.Err() == nil {
			// The coordinator will reassign via heartbeat timeout if it
			// never saw this result; nothing more to do here.
			logf("worker %s: push unit %d of %s: %v", w.Name(), l.Unit, l.RunID, err)
		}
	case resp.Duplicate:
		logf("worker %s: unit %d of %s already completed elsewhere", w.Name(), l.Unit, l.RunID)
	case !resp.Accepted:
		logf("worker %s: unit %d of %s rejected: %s", w.Name(), l.Unit, l.RunID, resp.Reason)
	}
}

// heartbeatLoop beats the current registration, re-registering when the
// coordinator stops recognising it (dropped after a timeout, or
// restarted with a fresh worker table).
func heartbeatLoop(ctx context.Context, s *session, override, initial time.Duration, logf func(string, ...any)) {
	interval := initial
	if override > 0 {
		interval = override
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		id, hb, err := s.current(ctx)
		if err != nil {
			continue
		}
		if override <= 0 && hb != interval && hb > 0 {
			interval = hb
			t.Reset(interval)
		}
		if err := s.cl.Heartbeat(ctx, id); err != nil && ctx.Err() == nil {
			if errors.Is(err, ErrUnknownWorker) {
				logf("worker: registration %s dropped; re-registering", id)
				s.drop(id)
			}
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

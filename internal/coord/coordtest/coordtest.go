// Package coordtest is the in-process fault-injection harness for the
// coordinator service: it spins a Coordinator plus N workers over a
// loopback HTTP server and injects the failure modes a distributed
// dispatch actually meets — worker crashes mid-unit, hangs, dropped and
// duplicated result pushes, clock-skewed heartbeats, and coordinator
// restarts — while the tests assert the journal record and the
// byte-identity of the merged output against the unsharded run.
package coordtest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/shard"
)

// Faults configures one worker's injected failure modes. Unit ids key
// the compute-side faults: they equal the lease's Unit field (round
// robin shard index, or cost batch id).
type Faults struct {
	// HeartbeatEvery overrides the server-suggested heartbeat interval —
	// set it beyond the coordinator's timeout to model a worker whose
	// clock (or scheduler) is skewed enough to look dead while it still
	// computes.
	HeartbeatEvery time.Duration
	// Die kills the whole worker (heartbeats included) the first time it
	// starts computing a unit for which Die returns true: the mid-batch
	// crash. The worker never comes back.
	Die func(unit int) bool
	// Hang blocks the compute of matching units until the rig shuts
	// down, while heartbeats keep flowing — the stuck-but-alive worker
	// only a lease timeout can recover from.
	Hang func(unit int) bool
	// DropPush computes matching units and then silently discards the
	// result instead of pushing it.
	DropPush func(l *coord.Lease) bool
	// DoublePush pushes matching units twice, modelling a retried
	// delivery whose first copy did arrive.
	DoublePush func(l *coord.Lease) bool
	// PushDelay sleeps before pushing a matching unit's result — long
	// enough, and the unit is reassigned first, making this the stale
	// push that must lose (or win, first-completion-wins) cleanly.
	PushDelay func(l *coord.Lease) time.Duration
}

// Worker is a handle on one rig worker.
type Worker struct {
	Name   string
	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// Kill cancels the worker's context: compute aborts, heartbeats stop,
// nothing is reported — exactly a crashed process.
func (w *Worker) Kill() { w.cancel() }

// Done is closed when the worker loop has exited.
func (w *Worker) Done() <-chan struct{} { return w.done }

// Rig is a coordinator plus workers over loopback HTTP.
type Rig struct {
	T      testing.TB
	Dir    string
	Opts   coord.Options
	Client *coord.Client

	mu      sync.Mutex
	coord   *coord.Coordinator
	srv     *httptest.Server
	workers []*Worker
	hang    chan struct{}
	ctx     context.Context
	stop    context.CancelFunc
}

// New starts a coordinator over a fresh temp state directory and a
// loopback server in front of it. Everything is cleaned up with the
// test; the server URL stays stable across Restart.
func New(t testing.TB, opts coord.Options) *Rig {
	t.Helper()
	c, err := coord.New(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("coordtest: %v", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	r := &Rig{T: t, Dir: c.Dir(), Opts: opts, coord: c, hang: make(chan struct{}), ctx: ctx, stop: stop}
	r.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.mu.Lock()
		h := r.coord.Handler()
		r.mu.Unlock()
		h.ServeHTTP(w, req)
	}))
	r.Client = &coord.Client{BaseURL: r.srv.URL}
	t.Cleanup(func() {
		stop()
		close(r.hang)
		r.mu.Lock()
		ws := append([]*Worker(nil), r.workers...)
		r.mu.Unlock()
		for _, w := range ws {
			w.Kill()
			<-w.Done()
		}
		r.srv.Close()
		r.Coordinator().Close()
	})
	return r
}

// Coordinator returns the current coordinator instance.
func (r *Rig) Coordinator() *coord.Coordinator {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.coord
}

// Restart closes the coordinator and opens a fresh one over the same
// state directory — journals are the only memory carried across, which
// is the point. The loopback URL is unchanged, so live workers simply
// re-register when their old identity stops being honoured.
func (r *Rig) Restart() {
	r.T.Helper()
	r.mu.Lock()
	old := r.coord
	r.mu.Unlock()
	if err := old.Close(); err != nil {
		r.T.Fatalf("coordtest: restart close: %v", err)
	}
	c, err := coord.New(r.Dir, r.Opts)
	if err != nil {
		r.T.Fatalf("coordtest: restart: %v", err)
	}
	r.mu.Lock()
	r.coord = c
	r.mu.Unlock()
}

// StartWorker launches a worker loop named name with the given faults,
// computing leases in-process through the experiment registry.
func (r *Rig) StartWorker(name string, f Faults) *Worker {
	r.T.Helper()
	ctx, cancel := context.WithCancel(r.ctx)
	w := &Worker{Name: name, cancel: cancel, done: make(chan struct{})}
	cw := &inprocWorker{name: name, faults: f, kill: cancel, hang: r.hang}
	opts := coord.WorkerOptions{
		ScratchDir:     r.T.TempDir(),
		HeartbeatEvery: f.HeartbeatEvery,
		LeaseWait:      100 * time.Millisecond,
		Logf:           func(format string, args ...any) { r.T.Logf("coordtest: "+format, args...) },
	}
	if f.DropPush != nil || f.DoublePush != nil || f.PushDelay != nil {
		opts.Push = func(l *coord.Lease, push func() (*coord.PushResponse, error)) error {
			if f.PushDelay != nil {
				if d := f.PushDelay(l); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return ctx.Err()
					}
				}
			}
			if f.DropPush != nil && f.DropPush(l) {
				return nil
			}
			n := 1
			if f.DoublePush != nil && f.DoublePush(l) {
				n = 2
			}
			for i := 0; i < n; i++ {
				if _, err := push(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	go func() {
		defer close(w.done)
		w.err = coord.RunWorker(ctx, r.Client, name, cw, opts)
	}()
	r.mu.Lock()
	r.workers = append(r.workers, w)
	r.mu.Unlock()
	return w
}

// Submit submits a sweep through the HTTP API and returns its run id.
func (r *Rig) Submit(req coord.SubmitRequest) string {
	r.T.Helper()
	id, err := r.Client.Submit(context.Background(), req)
	if err != nil {
		r.T.Fatalf("coordtest: submit: %v", err)
	}
	return id
}

// WaitMerged polls until the run merges (fatals on run failure or
// timeout) and returns its final status.
func (r *Rig) WaitMerged(runID string, timeout time.Duration) coord.RunStatus {
	r.T.Helper()
	st := r.WaitTerminal(runID, timeout)
	if st.State != "merged" {
		r.T.Fatalf("coordtest: run %s ended %q (%s), want merged", runID, st.State, st.Failure)
	}
	return st
}

// WaitTerminal polls until the run leaves the running state.
func (r *Rig) WaitTerminal(runID string, timeout time.Duration) coord.RunStatus {
	r.T.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := r.Coordinator().Status(runID)
		if err != nil {
			r.T.Fatalf("coordtest: status: %v", err)
		}
		if st.State != "running" {
			return st
		}
		if time.Now().After(deadline) {
			r.T.Fatalf("coordtest: run %s still %q after %s (%d/%d done)", runID, st.State, timeout, st.Done, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Result fetches a merged run's bytes through the HTTP API.
func (r *Rig) Result(runID string) []byte {
	r.T.Helper()
	data, err := r.Client.Result(context.Background(), runID)
	if err != nil {
		r.T.Fatalf("coordtest: result: %v", err)
	}
	return data
}

// Reference computes the unsharded reference bytes for a sweep: the
// exact file a merged coordinator run must reproduce.
func Reference(t testing.TB, selection string, p experiment.ShardParams) []byte {
	t.Helper()
	f, err := experiment.RunShard(selection, p, 0, 1, 0)
	if err != nil {
		t.Fatalf("coordtest: reference: %v", err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatalf("coordtest: reference: %v", err)
	}
	return data
}

// inprocWorker computes leases through the experiment registry, with
// the compute-side faults wired in.
type inprocWorker struct {
	name   string
	faults Faults
	kill   context.CancelFunc
	hang   <-chan struct{}
	once   sync.Once
}

func (w *inprocWorker) Name() string { return w.name }

func (w *inprocWorker) Run(ctx context.Context, t dispatch.Task) error {
	if w.faults.Die != nil && w.faults.Die(t.Index) {
		died := false
		w.once.Do(func() {
			died = true
			w.kill()
		})
		if died {
			<-ctx.Done()
			return ctx.Err()
		}
	}
	if w.faults.Hang != nil && w.faults.Hang(t.Index) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.hang:
			return fmt.Errorf("coordtest: hang released at shutdown")
		}
	}
	var (
		f   *shard.File
		err error
	)
	if t.Cells != "" {
		// A lease's cell spec names every run in canonical order, so its
		// sets are already aligned to the selection's runs.
		var cells [][]int
		_, cells, err = shard.ParseCellSpec(t.Cells)
		if err == nil {
			f, err = experiment.RunBatchCached(t.Spec.Selection, t.Spec.Params, 1, cells, nil)
		}
	} else {
		f, err = experiment.RunShard(t.Spec.Selection, t.Spec.Params, 1, t.Spec.Shards, t.Index)
	}
	if err != nil {
		return err
	}
	return f.WriteFile(t.Out)
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/shard"
)

// fleetWorkers is the worker-process count of both fleet workloads: one
// per CPU the benchmark is entitled to, each computing serially.
const fleetWorkers = 2

// fleet is what fleet-dispatch and fleet-coord share: the unit plan, the
// worker processes and the output checks. Each step dispatches one whole
// run of the plan; its ops are the run's units.
type fleet struct {
	e       env
	p       experiment.ShardParams
	lanes   []*lane
	workers []dispatch.Worker
	first   []byte // the first step's merged file, encoded json
	steps   int
}

func newFleet(e env) (*fleet, error) {
	if e.bin == "" {
		return nil, fmt.Errorf("the fleet workloads need -bin <ioschedbench binary>")
	}
	f := &fleet{e: e, p: experiment.ShardParams{Seed: e.seed, Systems: e.sz.fleetSystems, GAPopulation: 10, GAGenerations: 8}}
	for i := 0; i < fleetWorkers; i++ {
		l := &lane{name: fmt.Sprintf("local[%d]", i)}
		f.lanes = append(f.lanes, l)
		f.workers = append(f.workers, &timedWorker{lane: l, LocalProcWorker: dispatch.LocalProcWorker{
			Binary: e.bin, ExtraArgs: []string{"-parallel", "1"}, Label: l.name}})
	}
	return f, nil
}

// warmupSpec is the tiny run each fleet set-up dispatches once, so both
// worker binaries are paged in before the first measured unit.
var warmupSpec = dispatch.Spec{Selection: experiment.ExpFig5, Shards: fleetWorkers,
	Params: experiment.ShardParams{Seed: 1, Systems: 1, GAPopulation: 2, GAGenerations: 1}}

func (f *fleet) spec() dispatch.Spec {
	return dispatch.Spec{Selection: experiment.ExpAll, Params: f.p, Shards: f.e.sz.fleetUnits}
}

func (f *fleet) clients() int { return 1 }

func (f *fleet) minOps() int { return f.e.sz.minOps }

// begin points every lane at the step's phase.
func (f *fleet) begin(p *phase) {
	for _, l := range f.lanes {
		l.mu.Lock()
		l.p, l.runs, l.lastEnd = p, map[int]interval{}, time.Time{}
		l.mu.Unlock()
	}
}

// merged checks one step's merged output: byte-identical to the first
// step's, which verify compares against the in-process run.
func (f *fleet) merged(data []byte) error {
	f.steps++
	if f.first == nil {
		f.first = data
		return nil
	}
	if !bytes.Equal(data, f.first) {
		return fmt.Errorf("step %d merged output differs from the first step's", f.steps)
	}
	return nil
}

// verify requires the fleet output to equal, byte for byte, the
// in-process RunShard of the same params.
func (f *fleet) verify() (string, error) {
	ref, err := experiment.RunShard(experiment.ExpAll, f.p, f.e.nproc, 1, 0)
	if err != nil {
		return "", err
	}
	want, err := ref.Encode()
	if err != nil {
		return "", err
	}
	if !bytes.Equal(f.first, want) {
		return "", fmt.Errorf("merged output differs from the in-process RunShard of the same params")
	}
	return checkedDigest(ref, f.p, shard.EncodingJSON)
}

// report derives the lifecycle metrics under prefix ("dispatch." or
// "coord.").
func (f *fleet) report(p *phase, m metrics, prefix string) {
	c := p.counts
	m.set(prefix+"units", c["units"], "count")
	m.set(prefix+"attempts", c["attempts"], "count")
	m.set(prefix+"retries", c["retries"], "count")
	m.set(prefix+"useful_frac", c["units"]/max(c["attempts"], 1), "fraction")
	m.set(prefix+"worker_ms_p50", percentile(p.samples["worker_ms"], 50), "ms")
	m.set(prefix+"overhead_ms_p50", percentile(p.samples["overhead_ms"], 50), "ms")
	m.set(prefix+"overhead_ms_p95", percentile(p.samples["overhead_ms"], 95), "ms")
	m.set(prefix+"idle_ms_p50", percentile(p.samples["idle_ms"], 50), "ms")
	m.set(prefix+"merge_tail_s", c["merge_tail_s"]/float64(max(f.steps, 1)), "s")
}

type interval struct{ start, end time.Time }

// lane is one worker's timeline within a step: when it ran each unit and
// how long it sat idle between units. Units of one worker never overlap.
type lane struct {
	name string

	mu      sync.Mutex
	p       *phase // nil outside a measured step (set-up warm-up)
	runs    map[int]interval
	lastEnd time.Time
	// fleet-coord: when the current lease arrived, and when the last
	// result was accepted.
	leased, accepted time.Time
}

// timedWorker times each Worker.Run call of a local worker process.
type timedWorker struct {
	dispatch.LocalProcWorker
	lane *lane
}

func (w *timedWorker) Run(ctx context.Context, t dispatch.Task) error {
	start := time.Now()
	err := w.LocalProcWorker.Run(ctx, t)
	end := time.Now()
	l := w.lane
	l.mu.Lock()
	if l.p != nil {
		if !l.lastEnd.IsZero() {
			l.p.sample("idle_ms", ms(start.Sub(l.lastEnd)))
		}
		l.runs[t.Index] = interval{start, end}
	}
	l.lastEnd = end
	l.mu.Unlock()
	return err
}

// unitDone records one unit's op: from start (the driver handing it out)
// to end (the driver accepting its result), with the worker's Run inside.
// The time around the worker belongs to the driver's layer.
func (l *lane) unitDone(layer string, unit int, start, end time.Time) {
	l.mu.Lock()
	p, run := l.p, l.runs[unit]
	l.mu.Unlock()
	if p == nil {
		return
	}
	p.op(end.Sub(start))
	p.count("units", 1)
	if run.start.IsZero() {
		return
	}
	p.sample("worker_ms", ms(run.end.Sub(run.start)))
	p.sample("overhead_ms", ms(end.Sub(start)-run.end.Sub(run.start)))
	root := p.tr.rootAt("unit", start, end)
	p.tr.add(root, layer, layer+".handout_s", start, run.start)
	p.tr.add(root, "worker", "worker.run_s", run.start, run.end)
	p.tr.add(root, layer, layer+".accept_s", run.end, end)
}

func (f *fleet) laneNamed(name string) *lane {
	for _, l := range f.lanes {
		if l.name == name {
			return l
		}
	}
	return nil
}

// fleetDispatch is fleet-dispatch: dispatch.Run over local worker
// processes, cost-balanced, no stealing — "ioschedbench dispatch -workers
// 2 -balance cost -shards N".
type fleetDispatch struct {
	*fleet
}

func setupFleetDispatch(ctx context.Context, e env) (instance, error) {
	f, err := newFleet(e)
	if err != nil {
		return nil, err
	}
	_, err = dispatch.Run(ctx, warmupSpec, f.workers, dispatch.Options{Balance: dispatch.BalanceCost, Dir: filepath.Join(e.dir, "warmup")})
	return fleetDispatch{f}, err
}

func (d fleetDispatch) step(ctx context.Context, p *phase) error {
	d.begin(p)
	var mu sync.Mutex
	called := time.Now()
	var planned, lastDone time.Time
	handedOut := map[[2]int]time.Time{}
	attempts, fails := 0, 0
	progress := func(ev dispatch.ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case dispatch.ProgressPlan:
			planned = ev.Time
		case dispatch.ProgressAttempt, dispatch.ProgressSteal:
			attempts++
			handedOut[[2]int{ev.Shard, ev.Attempt}] = ev.Time
		case dispatch.ProgressFailed:
			fails++
		case dispatch.ProgressDone:
			lastDone = ev.Time
			if l := d.laneNamed(ev.Worker); l != nil {
				l.unitDone("dispatch", ev.Shard, handedOut[[2]int{ev.Shard, ev.Attempt}], ev.Time)
			}
		}
	}
	dir := filepath.Join(d.e.dir, fmt.Sprintf("run%d", d.steps))
	res, err := dispatch.Run(ctx, d.spec(), d.workers, dispatch.Options{Balance: dispatch.BalanceCost, Dir: dir, Progress: progress})
	returned := time.Now()
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	p.tr.add(-1, "dispatch", "dispatch.plan_s", called, planned)
	p.tr.add(-1, "dispatch", "dispatch.merge_tail_s", lastDone, returned)
	p.count("attempts", float64(attempts))
	p.count("retries", float64(res.Retries))
	p.count("merge_tail_s", returned.Sub(lastDone).Seconds())
	p.count("plan_s", planned.Sub(called).Seconds())
	data, err := res.Merged.Encode()
	if err != nil {
		return err
	}
	p.delivered(res.Merged.CellCount(), attempts, fails)
	return d.merged(data)
}

func (d fleetDispatch) report(p *phase, m metrics) {
	d.fleet.report(p, m, "dispatch.")
	m.set("dispatch.plan_s", p.counts["plan_s"]/float64(max(d.steps, 1)), "s")
}

func (d fleetDispatch) close() error { return nil }

// fleetCoord is fleet-coord: the same plan through an in-process
// coordinator on a loopback listener, with each worker process driven by
// a coord.RunWorker loop — "ioschedbench serve" + "work" + "submit".
type fleetCoord struct {
	*fleet
	c       *coord.Coordinator
	srv     *http.Server
	client  *coord.Client
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	workErr []error
}

func setupFleetCoord(ctx context.Context, e env) (instance, error) {
	f, err := newFleet(e)
	if err != nil {
		return nil, err
	}
	d := &fleetCoord{fleet: f, workErr: make([]error, fleetWorkers)}
	if d.c, err = coord.New(filepath.Join(e.dir, "coord"), coord.Options{}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.c.Close()
		return nil, err
	}
	d.srv = &http.Server{Handler: d.c.Handler()}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		d.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	base := "http://" + ln.Addr().String()
	d.client = &coord.Client{BaseURL: base}
	wctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	for i, w := range f.workers {
		cl := &coord.Client{BaseURL: base, HTTPClient: &http.Client{Transport: &timingTransport{lane: f.lanes[i]}}}
		scratch := filepath.Join(e.dir, fmt.Sprintf("worker%d", i))
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			d.close()
			return nil, err
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			err := coord.RunWorker(wctx, cl, f.lanes[i].name, w, coord.WorkerOptions{ScratchDir: scratch})
			if !errors.Is(err, context.Canceled) {
				d.workErr[i] = err
			}
		}()
	}
	if _, err := d.runOnce(ctx, warmupSpec, nil); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return d, nil
}

// runOnce submits one run, follows its event stream to the end and
// fetches the merged file.
func (d *fleetCoord) runOnce(ctx context.Context, spec dispatch.Spec, p *phase) ([]byte, error) {
	called := time.Now()
	id, err := d.client.Submit(ctx, coord.SubmitRequest{Selection: spec.Selection, Params: spec.Params, Shards: spec.Shards, Balance: dispatch.BalanceCost})
	if err != nil {
		return nil, err
	}
	submitted := time.Now()
	attempts, fails := 0, 0
	if err := d.client.Events(ctx, id, func(ev dispatch.ProgressEvent) {
		switch ev.Kind {
		case dispatch.ProgressAttempt:
			attempts++
		case dispatch.ProgressFailed:
			fails++
		}
	}); err != nil {
		return nil, err
	}
	st, err := d.client.Run(ctx, id)
	if err != nil {
		return nil, err
	}
	if st.State != "merged" {
		return nil, fmt.Errorf("run %s ended %s: %s", id, st.State, st.Failure)
	}
	data, err := d.client.Result(ctx, id)
	if err != nil || p == nil {
		return data, err
	}
	fetched := time.Now()
	var lastPush time.Time
	for _, l := range d.lanes {
		l.mu.Lock()
		if l.accepted.After(lastPush) {
			lastPush = l.accepted
		}
		l.mu.Unlock()
	}
	p.tr.add(-1, "coord", "coord.submit_s", called, submitted)
	p.tr.add(-1, "coord", "coord.merge_tail_s", lastPush, fetched)
	p.count("attempts", float64(attempts))
	p.count("retries", float64(fails))
	p.count("duplicates", float64(st.Duplicates))
	p.count("submit_s", submitted.Sub(called).Seconds())
	p.count("merge_tail_s", fetched.Sub(lastPush).Seconds())
	p.delivered(st.MergedCells, attempts, fails)
	return data, nil
}

func (d *fleetCoord) step(ctx context.Context, p *phase) error {
	d.begin(p)
	data, err := d.runOnce(ctx, d.spec(), p)
	if err != nil {
		return err
	}
	return d.merged(data)
}

func (d *fleetCoord) report(p *phase, m metrics) {
	d.fleet.report(p, m, "coord.")
	c := p.counts
	m.set("coord.duplicates", c["duplicates"], "count")
	m.set("coord.submit_s", c["submit_s"]/float64(max(d.steps, 1)), "s")
	m.set("coord.http.requests", c["http.requests"], "count")
	m.set("coord.http.lease_ms_p50", percentile(p.samples["http.lease_ms"], 50), "ms")
	m.set("coord.http.push_ms_p50", percentile(p.samples["http.push_ms"], 50), "ms")
	m.set("coord.http.push_bytes", c["http.push_bytes"]/max(c["units"], 1), "bytes")
}

func (d *fleetCoord) close() error {
	d.cancel()
	d.srv.Close()
	d.wg.Wait()
	err := d.c.Close()
	for _, werr := range d.workErr {
		if werr != nil && err == nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	return err
}

// timingTransport is one coordinator worker's HTTP transport: it times
// the lease and push round trips and reads their responses, which tell it
// when a unit was handed out and when its result was accepted.
type timingTransport struct {
	lane *lane
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	l := t.lane
	l.mu.Lock()
	p := l.p
	l.mu.Unlock()
	if p == nil {
		return resp, nil
	}
	p.count("http.requests", 1)
	isLease := req.URL.Path == "/api/v1/lease"
	isPush := req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/result")
	if !isLease && !isPush {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now()
	if isLease {
		p.sample("http.lease_ms", ms(end.Sub(start)))
		var lr coord.LeaseResponse
		if json.Unmarshal(body, &lr) == nil && lr.Lease != nil {
			l.mu.Lock()
			l.leased = end
			l.mu.Unlock()
		}
		return resp, nil
	}
	p.sample("http.push_ms", ms(end.Sub(start)))
	p.count("http.push_bytes", float64(req.ContentLength))
	var pr coord.PushResponse
	unit, uerr := strconv.Atoi(pathSegment(req.URL.Path, 5))
	if json.Unmarshal(body, &pr) == nil && pr.Accepted && uerr == nil {
		l.mu.Lock()
		leased := l.leased
		l.accepted = end
		l.mu.Unlock()
		l.unitDone("coord", unit, leased, end)
	}
	return resp, nil
}

// pathSegment returns the i-th "/"-separated element of an URL path
// ("/api/v1/runs/{id}/units/{unit}/result" has the unit at 5).
func pathSegment(path string, i int) string {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	if i < len(parts) {
		return parts[i]
	}
	return ""
}

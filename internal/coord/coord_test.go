package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/coord/coordtest"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/shard"
)

func testParams() experiment.ShardParams {
	return experiment.ShardParams{Systems: 4, Seed: 1, GAPopulation: 10, GAGenerations: 6}
}

func testOpts() coord.Options {
	return coord.Options{
		HeartbeatTimeout: 500 * time.Millisecond,
		SweepEvery:       25 * time.Millisecond,
	}
}

// TestCoordinatorRoundRobin drives a full sweep through the HTTP
// protocol with two honest workers and checks the merged result is
// byte-identical to the unsharded run.
func TestCoordinatorRoundRobin(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rig := coordtest.New(t, testOpts())
	rig.StartWorker("w0", coordtest.Faults{})
	rig.StartWorker("w1", coordtest.Faults{})
	id := rig.Submit(coord.SubmitRequest{Selection: "fig5", Params: testParams(), Shards: 3})
	st := rig.WaitMerged(id, 60*time.Second)
	if st.Done != 3 || st.Total != 3 {
		t.Fatalf("final status %+v, want 3/3 done", st)
	}
	if got, want := rig.Result(id), coordtest.Reference(t, "fig5", testParams()); !bytes.Equal(got, want) {
		t.Fatalf("merged result differs from unsharded run (%d vs %d bytes)", len(got), len(want))
	}
	// The run directory speaks the dispatch journal schema: the stock
	// reader must see a complete, merged run.
	jst, err := dispatch.ReadJournalDir(rig.Coordinator().RunDir(id))
	if err != nil {
		t.Fatalf("ReadJournalDir: %v", err)
	}
	if !jst.Merged || jst.DoneCount() != 3 || len(jst.Missing()) != 0 {
		t.Fatalf("journal state: merged=%v done=%d missing=%v", jst.Merged, jst.DoneCount(), jst.Missing())
	}
	if jst.Selection != "fig5" || jst.Shards != 3 {
		t.Fatalf("journal plan: %q x%d", jst.Selection, jst.Shards)
	}
}

// TestCoordinatorCostBalanced checks the cost-packed decomposition path
// end to end: batches leased as cell specs, merged via MergeBatches.
func TestCoordinatorCostBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rig := coordtest.New(t, testOpts())
	rig.StartWorker("w0", coordtest.Faults{})
	rig.StartWorker("w1", coordtest.Faults{})
	id := rig.Submit(coord.SubmitRequest{Selection: "fig5", Params: testParams(), Shards: 3, Balance: "cost"})
	rig.WaitMerged(id, 60*time.Second)
	if got, want := rig.Result(id), coordtest.Reference(t, "fig5", testParams()); !bytes.Equal(got, want) {
		t.Fatalf("cost-balanced merge differs from unsharded run")
	}
	jst, err := dispatch.ReadJournalDir(rig.Coordinator().RunDir(id))
	if err != nil {
		t.Fatalf("ReadJournalDir: %v", err)
	}
	if jst.Balance != "cost" {
		t.Fatalf("journal balance %q, want cost", jst.Balance)
	}
	batches := 0
	for _, sh := range jst.ShardStates {
		if sh.Kind == "cost" {
			batches++
			if sh.Spec == "" {
				t.Errorf("batch %d journaled without a cell spec", sh.Index)
			}
		}
	}
	if batches == 0 {
		t.Fatal("no cost batch events journaled")
	}
}

// TestCoordinatorMultiplexesRuns submits two different sweeps and
// checks both complete correctly from the same worker pool.
func TestCoordinatorMultiplexesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rig := coordtest.New(t, testOpts())
	rig.StartWorker("w0", coordtest.Faults{})
	rig.StartWorker("w1", coordtest.Faults{})
	idA := rig.Submit(coord.SubmitRequest{Selection: "fig5", Params: testParams(), Shards: 2})
	idB := rig.Submit(coord.SubmitRequest{Selection: "tailq", Params: testParams(), Shards: 3, Balance: "cost"})
	rig.WaitMerged(idA, 60*time.Second)
	rig.WaitMerged(idB, 60*time.Second)
	if got, want := rig.Result(idA), coordtest.Reference(t, "fig5", testParams()); !bytes.Equal(got, want) {
		t.Errorf("run %s differs from unsharded fig5", idA)
	}
	if got, want := rig.Result(idB), coordtest.Reference(t, "tailq", testParams()); !bytes.Equal(got, want) {
		t.Errorf("run %s differs from unsharded tailq", idB)
	}
	runs, err := rig.Client.Runs(context.Background())
	if err != nil {
		t.Fatalf("Runs: %v", err)
	}
	if len(runs) != 2 || runs[0].RunID != idA || runs[1].RunID != idB {
		t.Fatalf("run list %+v, want [%s %s]", runs, idA, idB)
	}
}

// TestCoordinatorEvents consumes the SSE stream of a live run and
// checks the progress schema arrives in order: plan first, then
// attempts/dones, merged last.
func TestCoordinatorEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rig := coordtest.New(t, testOpts())
	id := rig.Submit(coord.SubmitRequest{Selection: "tailq", Params: testParams(), Shards: 2})
	var kinds []dispatch.ProgressKind
	done := make(chan error, 1)
	go func() {
		done <- rig.Client.Events(context.Background(), id, func(e dispatch.ProgressEvent) {
			if e.Version != dispatch.ProgressVersion {
				t.Errorf("event version %d, want %d", e.Version, dispatch.ProgressVersion)
			}
			kinds = append(kinds, e.Kind)
		})
	}()
	rig.StartWorker("w0", coordtest.Faults{})
	rig.WaitMerged(id, 60*time.Second)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Events: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not terminate after merge")
	}
	if len(kinds) == 0 || kinds[0] != dispatch.ProgressPlan {
		t.Fatalf("stream kinds %v: want plan first", kinds)
	}
	if kinds[len(kinds)-1] != dispatch.ProgressMerged {
		t.Fatalf("stream kinds %v: want merged last", kinds)
	}
	count := map[dispatch.ProgressKind]int{}
	for _, k := range kinds {
		count[k]++
	}
	if count[dispatch.ProgressAttempt] < 2 || count[dispatch.ProgressDone] != 2 {
		t.Fatalf("stream kinds %v: want >=2 attempts and exactly 2 dones", kinds)
	}
}

// TestCoordinatorEventsAcrossRestart: a client that attaches after a
// coordinator restart replays the run's whole journal — the attempt and
// the failure recorded before the restart included — then follows the
// resumed run to its merge.
func TestCoordinatorEventsAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	rig := coordtest.New(t, testOpts())
	id := rig.Submit(coord.SubmitRequest{Selection: "tailq", Params: testParams(), Shards: 1})
	reg, err := rig.Client.Register(ctx, "flaky")
	if err != nil {
		t.Fatal(err)
	}
	l, err := rig.Client.Lease(ctx, reg.WorkerID, 0)
	if err != nil || l == nil {
		t.Fatalf("lease = %+v, %v", l, err)
	}
	if err := rig.Client.ReportFail(ctx, l, reg.WorkerID, "boom"); err != nil {
		t.Fatal(err)
	}
	rig.Restart()
	rig.StartWorker("w0", coordtest.Faults{})
	var events []dispatch.ProgressEvent
	if err := rig.Client.Events(ctx, id, func(e dispatch.ProgressEvent) { events = append(events, e) }); err != nil {
		t.Fatalf("Events: %v", err)
	}
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, fmt.Sprintf("%s/%d", e.Kind, e.Attempt))
	}
	got := strings.Join(kinds, " ")
	want := "plan/0 batch/0 attempt/1 fail/1 plan/0 batch/0 attempt/2 done/2 merged/0"
	if got != want {
		t.Fatalf("re-attached stream %s, want %s", got, want)
	}
	if events[3].Err != "boom" {
		t.Fatalf("pre-restart failure streamed as %+v", events[3])
	}
}

// TestSubmitRefusesOversizedGrid: a submit's params, chosen by a remote
// client, size the plan. Params asking for a grid over
// shard.MaxGridCells are refused on either decomposition before the
// plan sizes anything by them, within a small fixed allocation, and
// leave no run behind.
func TestSubmitRefusesOversizedGrid(t *testing.T) {
	c, err := coord.New(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := experiment.ShardParams{Systems: 2_000_000_000, Seed: 1}
	for _, balance := range []string{dispatch.BalanceRoundRobin, dispatch.BalanceCost} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.Submit(coord.SubmitRequest{Selection: experiment.ExpFig5, Params: p, Shards: 2, Balance: balance})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s submit asking for 2e9 systems: %v, want the grid refused", balance, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("refusing the %s submit allocated %d bytes, want <= 1 MiB", balance, alloc)
		}
	}
	if st, err := c.Status("run-0001"); err == nil {
		t.Errorf("a refused submit left a run behind: %+v", st)
	}
}

// TestSubscribeAfterClose: a closed coordinator still serves a run's
// history from its journal, and hands out no live stream.
func TestSubscribeAfterClose(t *testing.T) {
	c, err := coord.New(t.TempDir(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	id, err := c.Submit(coord.SubmitRequest{Selection: "fig5", Params: testParams(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	history, ch, cancel, err := c.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if ch != nil || len(history) != 2 || history[0].Kind != dispatch.ProgressPlan || history[1].Kind != dispatch.ProgressBatch {
		t.Fatalf("after Close: channel %v, history %+v; want the plan and batch events and no channel", ch, history)
	}
}

// TestCoordinatorResultMatchesMergeSubcommandInput checks the result
// endpoint serves a well-formed single-shard file (re-renderable, like
// any merged cover).
func TestCoordinatorResultDecodes(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	rig := coordtest.New(t, testOpts())
	rig.StartWorker("w0", coordtest.Faults{})
	id := rig.Submit(coord.SubmitRequest{Selection: "tailq", Params: testParams(), Shards: 2})
	rig.WaitMerged(id, 60*time.Second)
	f, err := shard.Decode(rig.Result(id))
	if err != nil {
		t.Fatalf("result does not decode as a shard file: %v", err)
	}
	if f.Shards != 1 || f.Index != 0 {
		t.Fatalf("result is %d/%d, want single-shard", f.Index, f.Shards)
	}
}

// TestStatusEndpoint checks the deterministic status text over HTTP.
func TestStatusEndpoint(t *testing.T) {
	rig := coordtest.New(t, testOpts())
	resp, err := http.Get(rig.Client.BaseURL + "/api/v1/status")
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status endpoint: %s: %s", resp.Status, body)
	}
	if want := "coordinator: 0 run(s), 0 worker(s) connected\n"; string(body) != want {
		t.Fatalf("empty status = %q, want %q", body, want)
	}
}

// TestSubmitRejectsNonsense checks server-side validation surfaces as
// client errors, not created runs.
func TestSubmitRejectsNonsense(t *testing.T) {
	rig := coordtest.New(t, testOpts())
	ctx := context.Background()
	if _, err := rig.Client.Submit(ctx, coord.SubmitRequest{Selection: "no-such-experiment", Shards: 2}); err == nil {
		t.Error("submit accepted an unknown selection")
	}
	if _, err := rig.Client.Submit(ctx, coord.SubmitRequest{Selection: "fig5", Shards: 0}); err == nil {
		t.Error("submit accepted zero shards")
	}
	if _, err := rig.Client.Submit(ctx, coord.SubmitRequest{Selection: "fig5", Shards: 2, Balance: "magic"}); err == nil {
		t.Error("submit accepted an unknown balance")
	}
	// The Go API validates the balance itself, not only the HTTP decoder.
	if _, err := rig.Coordinator().Submit(coord.SubmitRequest{Selection: "fig5", Shards: 2, Balance: "magic"}); err == nil {
		t.Error("Coordinator.Submit accepted an unknown balance")
	}
	runs, err := rig.Client.Runs(ctx)
	if err != nil {
		t.Fatalf("Runs: %v", err)
	}
	if len(runs) != 0 {
		t.Fatalf("rejected submits left %d runs behind", len(runs))
	}
	if _, err := rig.Client.Run(ctx, "run-9999"); err == nil || !strings.Contains(err.Error(), "unknown run") {
		t.Errorf("unknown run error = %v", err)
	}
}

// TestSweepSurvivesRunFailureMidSweep pins the sweeper against the run
// going terminal mid-sweep: one worker holds two leases and vanishes
// with MaxAttempts=1, so the first expired lease fails the whole run
// and closes its journal. The second expired lease of the same run must
// then be skipped — not journaled against a closed (nil) journal, which
// used to panic the sweeper goroutine and crash the coordinator.
func TestSweepSurvivesRunFailureMidSweep(t *testing.T) {
	c, err := coord.New(t.TempDir(), coord.Options{
		HeartbeatTimeout: 200 * time.Millisecond,
		SweepEvery:       25 * time.Millisecond,
		MaxAttempts:      1,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	reg := c.Register("ghost")
	id, err := c.Submit(coord.SubmitRequest{Selection: "fig5", Params: testParams(), Shards: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for i := 0; i < 2; i++ {
		l, lerr := c.Lease(reg.WorkerID, 0)
		if lerr != nil || l == nil {
			t.Fatalf("lease %d = %+v, %v", i, l, lerr)
		}
	}
	// The worker never heartbeats again: both leases expire in one sweep.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, serr := c.Status(id)
		if serr != nil {
			t.Fatalf("Status: %v", serr)
		}
		if st.State == "failed" {
			if !strings.Contains(st.Failure, "attempts exhausted") {
				t.Fatalf("run failed with %q, want an attempts-exhausted reason", st.Failure)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never failed after losing its worker: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerIDsUniqueAcrossRestart checks a pre-restart worker id can
// never alias a post-restart registration: aliasing would let the old
// worker's heartbeats keep the new id alive, silently breaking
// heartbeat-timeout reassignment.
func TestWorkerIDsUniqueAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := coord.New(dir, testOpts())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	id1 := c1.Register("a").WorkerID
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c2, err := coord.New(dir, testOpts())
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer c2.Close()
	if id2 := c2.Register("b").WorkerID; id1 == id2 {
		t.Fatalf("worker id %q reused across restart", id1)
	}
	if err := c2.Heartbeat(id1); err == nil {
		t.Fatalf("restarted coordinator accepted pre-restart worker id %q", id1)
	}
}

// TestRestartRestoresAttemptBudget checks journaled attempts count
// against MaxAttempts after a coordinator restart — the budget must not
// silently reset, or a persistently failing unit retries forever across
// restarts.
func TestRestartRestoresAttemptBudget(t *testing.T) {
	dir := t.TempDir()
	opts := coord.Options{HeartbeatTimeout: time.Minute, MaxAttempts: 3}
	c1, err := coord.New(dir, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg := c1.Register("flaky")
	id, err := c1.Submit(coord.SubmitRequest{Selection: "fig5", Params: testParams(), Shards: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	l, err := c1.Lease(reg.WorkerID, 0)
	if err != nil || l == nil || l.Attempt != 1 {
		t.Fatalf("first lease = %+v, %v", l, err)
	}
	if err := c1.ReportFail(id, l.Unit, coord.FailRequest{WorkerID: reg.WorkerID, Attempt: 1, Error: "boom"}); err != nil {
		t.Fatalf("ReportFail: %v", err)
	}
	if err := c1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	c2, err := coord.New(dir, opts)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	defer c2.Close()
	reg2 := c2.Register("flaky-too")
	l2, err := c2.Lease(reg2.WorkerID, 0)
	if err != nil || l2 == nil {
		t.Fatalf("lease after restart = %+v, %v", l2, err)
	}
	if l2.Attempt != 2 {
		t.Fatalf("lease after restart is attempt %d, want 2: the journaled attempt must count against the budget", l2.Attempt)
	}
}

// TestLeaseUnknownWorker checks the protocol's re-register contract: a
// lease or heartbeat under an unknown id fails with 404.
func TestLeaseUnknownWorker(t *testing.T) {
	rig := coordtest.New(t, testOpts())
	ctx := context.Background()
	if _, err := rig.Client.Lease(ctx, "w-9999", 0); err == nil {
		t.Error("lease under an unregistered id succeeded")
	}
	if err := rig.Client.Heartbeat(ctx, "w-9999"); err == nil {
		t.Error("heartbeat under an unregistered id succeeded")
	}
	reg, err := rig.Client.Register(ctx, "probe")
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if err := rig.Client.Heartbeat(ctx, reg.WorkerID); err != nil {
		t.Errorf("heartbeat after register: %v", err)
	}
	l, err := rig.Client.Lease(ctx, reg.WorkerID, 0)
	if err != nil || l != nil {
		t.Errorf("lease with no work = %+v, %v; want nil, nil", l, err)
	}
}

// TestSubscribeDoesNotStallLease: a subscriber re-reading a long journal
// — a 10 000-unit run, each unit with an attempt and a failure — holds
// no lock while it decodes, so a Lease that starts meanwhile completes
// within a small fixed bound (a quarter of the decode on a host slow
// enough, as under the race detector, that the decode takes seconds).
func TestSubscribeDoesNotStallLease(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const units = 10000
	opts := testOpts()
	opts.HeartbeatTimeout = time.Minute // the lessee never heartbeats
	rig := coordtest.New(t, opts)
	id := rig.Submit(coord.SubmitRequest{Selection: "tailq", Params: testParams(), Shards: units})
	c := rig.Coordinator()
	var pad bytes.Buffer
	t0 := time.Date(2026, 10, 1, 12, 0, 0, 0, time.UTC)
	for u := range units {
		for _, e := range []dispatch.ProgressEvent{
			{Kind: dispatch.ProgressAttempt, Time: t0, Shard: u, Attempt: 1, Worker: "w-lost"},
			{Kind: dispatch.ProgressFailed, Time: t0, Shard: u, Attempt: 1, Worker: "w-lost", Err: "lease expired after 1m0s"},
		} {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			pad.Write(append(line, '\n'))
		}
	}
	journal, err := os.OpenFile(filepath.Join(c.RunDir(id), dispatch.JournalFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.Write(pad.Bytes()); err != nil {
		t.Fatal(err)
	}
	journal.Close()

	worker := c.Register("w").WorkerID
	subscribed := make(chan time.Duration)
	go func() {
		start := time.Now()
		history, _, cancel, err := c.Subscribe(id)
		if err != nil || len(history) < 3*units {
			t.Errorf("Subscribe: %d events, %v", len(history), err)
		} else {
			cancel()
		}
		subscribed <- time.Since(start)
	}()
	var worst time.Duration
	for leases := 0; ; leases++ {
		select {
		case took := <-subscribed:
			t.Logf("Subscribe took %v; %d leases meanwhile, the slowest %v", took, leases, worst)
			if bound := max(25*time.Millisecond, took/4); worst > bound {
				t.Fatalf("a Lease during Subscribe took %v, want <= %v", worst, bound)
			}
			return
		default:
		}
		start := time.Now()
		if _, err := c.Lease(worker, 0); err != nil {
			t.Fatal(err)
		}
		worst = max(worst, time.Since(start))
	}
}

// TestLeasePrefersFreshWorker: a worker that failed a unit is not leased
// it again while another live worker has not failed it; once every live
// worker has, anyone may lease it.
func TestLeasePrefersFreshWorker(t *testing.T) {
	c, err := coord.New(t.TempDir(), coord.Options{HeartbeatTimeout: time.Minute, MaxAttempts: 5})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	a, b := c.Register("same").WorkerID, c.Register("same").WorkerID
	id, err := c.Submit(coord.SubmitRequest{Selection: "fig5", Params: testParams(), Shards: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	failed := func(worker string, want int) {
		t.Helper()
		l, err := c.Lease(worker, 0)
		if err != nil || l == nil || l.Attempt != want {
			t.Fatalf("lease = %+v, %v; want attempt %d", l, err, want)
		}
		if err := c.ReportFail(id, l.Unit, coord.FailRequest{WorkerID: worker, Attempt: l.Attempt, Error: "boom"}); err != nil {
			t.Fatalf("ReportFail: %v", err)
		}
	}
	failed(a, 1)
	if l, err := c.Lease(a, 0); err != nil || l != nil {
		t.Fatalf("the failed worker leased %+v, %v while a fresh one is live", l, err)
	}
	failed(b, 2)
	failed(a, 3) // both failed it: anyone may lease it
}

// TestLeaseNoSteal: the coordinator keeps one lease per unit, so an idle
// worker gets nothing while the only unit is in flight.
func TestLeaseNoSteal(t *testing.T) {
	c, err := coord.New(t.TempDir(), coord.Options{HeartbeatTimeout: time.Minute})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	a, b := c.Register("a").WorkerID, c.Register("b").WorkerID
	if _, err := c.Submit(coord.SubmitRequest{Selection: "fig5", Params: testParams(), Shards: 1}); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if l, err := c.Lease(a, 0); err != nil || l == nil {
		t.Fatalf("first lease = %+v, %v", l, err)
	}
	if l, err := c.Lease(b, 0); err != nil || l != nil {
		t.Fatalf("an idle worker leased %+v, %v while the only unit is in flight", l, err)
	}
}

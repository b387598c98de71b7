package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiment"
)

// testSpec keeps the dispatched integration runs quick; the params match
// the experiment package's shardParamsFast so the grids stay tiny.
func testSpec(selection string, shards int) Spec {
	return Spec{
		Selection: selection,
		Params:    experiment.ShardParams{Systems: 4, Seed: 1, GAPopulation: 10, GAGenerations: 6},
		Shards:    shards,
	}
}

// refEncoded is the byte-exact target every dispatch must hit: the
// 1-shard file of the same run, as the unsharded path would persist it.
func refEncoded(t *testing.T, spec Spec) []byte {
	t.Helper()
	f, err := experiment.RunShard(spec.Selection, spec.Params, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkMerged asserts the dispatch result encodes byte-identically to the
// unsharded run.
func checkMerged(t *testing.T, res *Result, want []byte) {
	t.Helper()
	if res.Merged == nil {
		t.Fatal("dispatch returned no merged file")
	}
	got, err := res.Merged.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged file differs from the unsharded run (%d vs %d bytes)", len(got), len(want))
	}
}

// goodRun is the honest in-process worker behaviour: compute the shard
// and persist it, exactly as a worker subprocess would.
func goodRun(_ context.Context, t Task) error {
	f, err := experiment.RunShard(t.Spec.Selection, t.Spec.Params, 1, t.Spec.Shards, t.Index)
	if err != nil {
		return err
	}
	return f.WriteFile(t.Out)
}

// funcWorker adapts a function to the Worker interface for in-process
// failure injection.
type funcWorker struct {
	name string
	run  func(ctx context.Context, t Task) error
}

func (w *funcWorker) Name() string                          { return w.name }
func (w *funcWorker) Run(ctx context.Context, t Task) error { return w.run(ctx, t) }

// sabotage injects one failure mode into the first attempt at one shard
// index; every later attempt (on any worker sharing it) behaves honestly.
type sabotage struct {
	mu     sync.Mutex
	target int
	mode   string
	fired  bool
}

func (s *sabotage) arm() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fired {
		return false
	}
	s.fired = true
	return true
}

func (s *sabotage) run(ctx context.Context, t Task) error {
	if t.Index != s.target || !s.arm() {
		return goodRun(ctx, t)
	}
	switch s.mode {
	case "crash":
		// Worker dies mid-shard: an error and no file.
		return fmt.Errorf("injected crash")
	case "corrupt":
		// Worker "succeeds" but the file is garbage.
		if err := os.WriteFile(t.Out, []byte("not json{"), 0o644); err != nil {
			return err
		}
		return nil
	case "partial":
		// Worker is killed after writing a truncated-but-decodable file:
		// the real shard minus its last cell.
		f, err := experiment.RunShard(t.Spec.Selection, t.Spec.Params, 1, t.Spec.Shards, t.Index)
		if err != nil {
			return err
		}
		cells := f.Runs[0].Cells
		if len(cells) == 0 {
			return fmt.Errorf("sabotage: no cells to drop")
		}
		f.Runs[0].Cells = cells[:len(cells)-1]
		return f.WriteFile(t.Out)
	case "foreign":
		// Worker returns a valid shard of a different run (wrong seed).
		other := t.Spec
		other.Params.Seed = t.Spec.Params.Seed + 1
		f, err := experiment.RunShard(other.Selection, other.Params, 1, other.Shards, t.Index)
		if err != nil {
			return err
		}
		return f.WriteFile(t.Out)
	case "hang":
		// Worker wedges; only the driver's attempt timeout frees it.
		<-ctx.Done()
		return ctx.Err()
	default:
		return fmt.Errorf("unknown sabotage %q", s.mode)
	}
}

func pool(n int, run func(ctx context.Context, t Task) error) []Worker {
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = &funcWorker{name: fmt.Sprintf("w%d", i), run: run}
	}
	return ws
}

func TestDispatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpAll, 3)
	want := refEncoded(t, spec)
	res, err := Run(context.Background(), spec, pool(3, goodRun), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Resumed != 0 || res.Ran != 3 || res.Retries != 0 {
		t.Fatalf("resumed/ran/retries = %d/%d/%d, want 0/3/0", res.Resumed, res.Ran, res.Retries)
	}
	if res.Dir != "" || res.ShardPaths != nil {
		t.Fatalf("temporary working dir should not be reported: %q %v", res.Dir, res.ShardPaths)
	}
}

// TestDispatchRetriesFailures is the acceptance matrix: a worker that
// crashes mid-shard, one that writes a corrupt file, one that writes a
// decodable-but-partial file, one that returns a shard of a different
// run, and one that hangs until the attempt timeout — each must end with
// a successful retry and a merged output byte-identical to the unsharded
// run.
func TestDispatchRetriesFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 3)
	want := refEncoded(t, spec)
	for _, mode := range []string{"crash", "corrupt", "partial", "foreign", "hang"} {
		t.Run(mode, func(t *testing.T) {
			sab := &sabotage{target: 1, mode: mode}
			// The small RetryDelay routes retries through the delayed
			// requeue path as well.
			opts := Options{MaxAttempts: 3, RetryDelay: 10 * time.Millisecond}
			if mode == "hang" {
				opts.AttemptTimeout = 200 * time.Millisecond
			}
			res, err := Run(context.Background(), spec, pool(3, sab.run), opts)
			if err != nil {
				t.Fatal(err)
			}
			checkMerged(t, res, want)
			if res.Retries < 1 {
				t.Fatalf("no retry recorded for mode %q", mode)
			}
			var failed bool
			for _, a := range res.Attempts {
				if a.Shard == 1 && a.Err != "" {
					failed = true
				}
			}
			if !failed {
				t.Fatalf("attempt log records no failure for shard 1: %+v", res.Attempts)
			}
		})
	}
}

func TestDispatchExhaustsAttempts(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 2)
	broken := func(ctx context.Context, task Task) error {
		if task.Index == 0 {
			return fmt.Errorf("injected permanent failure")
		}
		return goodRun(ctx, task)
	}
	_, err := Run(context.Background(), spec, pool(2, broken), Options{MaxAttempts: 2})
	if err == nil {
		t.Fatal("dispatch succeeded despite a permanently failing shard")
	}
	if !strings.Contains(err.Error(), "shard 0") || !strings.Contains(err.Error(), "2 attempts") {
		t.Fatalf("error does not name the exhausted shard and attempts: %v", err)
	}
}

// TestDispatchResume interrupts a dispatch (one shard permanently fails
// with no attempts left) and re-runs it over the same directory: the
// journal must carry the completed shards across, and the second run must
// execute only the missing index.
func TestDispatchResume(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 3)
	want := refEncoded(t, spec)
	dir := t.TempDir()

	broken := func(ctx context.Context, task Task) error {
		if task.Index == 2 {
			return fmt.Errorf("injected permanent failure")
		}
		return goodRun(ctx, task)
	}
	// One worker, so shards 0 and 1 complete before shard 2 aborts the run.
	if _, err := Run(context.Background(), spec, pool(1, broken), Options{MaxAttempts: 1, Dir: dir}); err == nil {
		t.Fatal("first dispatch should have failed")
	}

	res, err := Run(context.Background(), spec, pool(2, goodRun), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Resumed != 2 || res.Ran != 1 {
		t.Fatalf("resumed/ran = %d/%d, want 2/1", res.Resumed, res.Ran)
	}
	if res.Dir != dir || len(res.ShardPaths) != 3 {
		t.Fatalf("persistent dir not reported: %q %v", res.Dir, res.ShardPaths)
	}
}

// TestDispatchResumeRevalidates covers the journal lying: a shard is
// marked done but its file has been corrupted since. The resume must
// detect it and re-run that index.
func TestDispatchResumeRevalidates(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	want := refEncoded(t, spec)
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, pool(2, goodRun), Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard1.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, pool(2, goodRun), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkMerged(t, res, want)
	if res.Resumed != 1 || res.Ran != 1 {
		t.Fatalf("resumed/ran = %d/%d, want 1/1", res.Resumed, res.Ran)
	}
}

func TestJournalRejectsDifferentRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	spec := testSpec(experiment.ExpFig5, 2)
	dir := t.TempDir()
	if _, err := Run(context.Background(), spec, pool(2, goodRun), Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	other := spec
	other.Params.Seed = 99
	_, err := Run(context.Background(), other, pool(2, goodRun), Options{Dir: dir})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("journal accepted a different run: %v", err)
	}
}

func TestDispatchContextCancel(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 2)
	ctx, cancel := context.WithCancel(context.Background())
	hang := func(hctx context.Context, _ Task) error {
		<-hctx.Done()
		return hctx.Err()
	}
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, spec, pool(2, hang), Options{})
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled dispatch returned nil error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled dispatch did not return")
	}
}

func TestSpecValidation(t *testing.T) {
	good := testSpec(experiment.ExpFig5, 2)
	if _, err := Run(context.Background(), good, nil, Options{}); err == nil {
		t.Error("empty worker pool accepted")
	}
	bad := good
	bad.Shards = 0
	if _, err := Run(context.Background(), bad, pool(1, goodRun), Options{}); err == nil {
		t.Error("zero shards accepted")
	}
	bad = good
	bad.Selection = "nonsense"
	if _, err := Run(context.Background(), bad, pool(1, goodRun), Options{}); err == nil {
		t.Error("unknown selection accepted")
	}
	bad = good
	bad.Selection = experiment.ExpTable1
	if _, err := Run(context.Background(), bad, pool(1, goodRun), Options{}); err == nil {
		t.Error("gridless selection accepted")
	}
}

func TestWorkerArgs(t *testing.T) {
	spec := testSpec(experiment.ExpFig5, 3)
	args, err := spec.WorkerArgs(2)
	if err != nil {
		t.Fatal(err)
	}
	joined := " " + strings.Join(args, " ") + " "
	for _, want := range []string{
		" -experiment fig5 ", " -seed 1 ", " -systems 4 ", " -gapop 10 ", " -gagens 6 ",
		" -ablation-u 0.6 ", " -shards 3 ", " -shard-index 2 ",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("args %q missing %q", joined, want)
		}
	}
	if strings.Contains(joined, "-out") || strings.Contains(joined, "-parallel") {
		t.Errorf("args %q must not pick the output path or host parallelism", joined)
	}

	// The defaults these flags resolve to must round-trip: a worker given
	// these args records params identical to the spec's.
	spec2 := spec
	spec2.Params = spec.Params.Normalised()
	args2, err := spec2.WorkerArgs(2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(args, " ") != strings.Join(args2, " ") {
		t.Errorf("normalised params change the args: %q vs %q", args, args2)
	}

	unexpressible := spec
	unexpressible.Params.MotivationWrites = 7
	if _, err := unexpressible.WorkerArgs(0); err == nil {
		t.Error("params with no CLI spelling accepted")
	}
}

// TestValidateShardFile covers the acceptance filter directly: only a
// decodable, complete, same-run shard file of the right index passes.
func TestValidateShardFile(t *testing.T) {
	spec, params, runNames, err := testSpec(experiment.ExpFig5, 2).normalised()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	f, err := experiment.RunShard(spec.Selection, spec.Params, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	vf, err := validateFile(path, spec, 0, params, runNames, nil)
	if err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	if vf == nil || vf.CellCount() != f.CellCount() {
		t.Fatalf("validation did not return the decoded file: %+v", vf)
	}
	if _, err := validateFile(path, spec, 1, params, runNames, nil); err == nil {
		t.Error("wrong index accepted")
	}
	var otherParams bytes.Buffer
	if err := json.Compact(&otherParams, []byte(`{"seed": 2}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := validateFile(path, spec, 0, otherParams.Bytes(), runNames, nil); err == nil {
		t.Error("params mismatch accepted")
	}
	if _, err := validateFile(path, spec, 0, params, []string{"fig5", "fig6"}, nil); err == nil {
		t.Error("missing run accepted")
	}
	if _, err := validateFile(filepath.Join(dir, "absent.json"), spec, 0, params, runNames, nil); err == nil {
		t.Error("missing file accepted")
	}
}

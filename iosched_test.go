package iosched_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	iosched "repro"
)

func exampleTasks() []iosched.Task {
	return []iosched.Task{
		{Name: "injector", C: 1 * iosched.Millisecond, T: 20 * iosched.Millisecond,
			Delta: 8 * iosched.Millisecond, Theta: 5 * iosched.Millisecond},
		{Name: "sensor", C: 2 * iosched.Millisecond, T: 40 * iosched.Millisecond,
			Delta: 25 * iosched.Millisecond, Theta: 10 * iosched.Millisecond},
	}
}

func TestFacadeQuickstartFlow(t *testing.T) {
	ts, err := iosched.NewTaskSet(exampleTasks())
	if err != nil {
		t.Fatal(err)
	}
	ts.AssignDMPO()
	ts.ApplyPaperQuality(1)
	for _, m := range []iosched.Method{
		iosched.MethodStatic, iosched.MethodGA,
		iosched.MethodFPSOffline, iosched.MethodGPIOCP,
	} {
		schedules, err := iosched.ScheduleWith(ts, m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		psi, ups := schedules.Metrics(iosched.LinearCurve)
		if psi < 0 || psi > 1 || ups < 0 || ups > 1.000001 {
			t.Errorf("%s: metrics out of range: %g, %g", m, psi, ups)
		}
	}
	if _, err := iosched.ScheduleWith(ts, "bogus"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestFacadeSchedulers(t *testing.T) {
	ts, err := iosched.NewTaskSet(exampleTasks())
	if err != nil {
		t.Fatal(err)
	}
	ts.AssignDMPO()
	ts.ApplyPaperQuality(1)
	jobs := ts.Jobs()
	for _, s := range []iosched.Scheduler{
		iosched.NewStaticScheduler(iosched.StaticOptions{}),
		iosched.NewGAScheduler(iosched.GADefaultOptions()),
		iosched.NewFPSOffline(),
		iosched.NewGPIOCP(),
	} {
		schedule, err := s.Schedule(jobs)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := schedule.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
	}
}

func TestFacadeGASolveAndMetrics(t *testing.T) {
	ts, _ := iosched.NewTaskSet(exampleTasks())
	ts.AssignDMPO()
	ts.ApplyPaperQuality(1)
	jobs := ts.Jobs()
	opts := iosched.GADefaultOptions()
	opts.Population, opts.Generations, opts.Seed = 16, 10, 3
	res, err := iosched.GASolve(jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	best := res.BestPsi()
	psi, err := iosched.Psi(jobs, best.Starts)
	if err != nil {
		t.Fatal(err)
	}
	if psi != best.Psi {
		t.Errorf("Ψ mismatch: %g vs %g", psi, best.Psi)
	}
	if _, err := iosched.Upsilon(jobs, best.Starts, iosched.LinearCurve); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFPSOnlineAndGen(t *testing.T) {
	cfg := iosched.PaperGenConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(1)), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// The analysis runs per partition; the paper config is single-device.
	_ = iosched.FPSOnlineSchedulable(ts.Tasks)
}

func TestFacadeTable1(t *testing.T) {
	rows := iosched.Table1()
	if len(rows) != 7 {
		t.Fatalf("table rows = %d", len(rows))
	}
	if rows[0].Name != "Proposed" {
		t.Errorf("first row = %s", rows[0].Name)
	}
}

func TestFacadeErrInfeasible(t *testing.T) {
	// An impossible set: two tasks that each need more than half the
	// device inside overlapping boundaries of one short window.
	tasks := []iosched.Task{
		{C: 6 * iosched.Millisecond, T: 10 * iosched.Millisecond,
			Delta: 4 * iosched.Millisecond, Theta: 2 * iosched.Millisecond, Vmax: 2, Vmin: 1},
		{C: 6 * iosched.Millisecond, T: 10 * iosched.Millisecond,
			Delta: 5 * iosched.Millisecond, Theta: 2 * iosched.Millisecond, Vmax: 2, Vmin: 1},
	}
	ts, err := iosched.NewTaskSet(tasks)
	if err != nil {
		t.Skipf("model rejects the set outright: %v", err)
	}
	ts.AssignDMPO()
	_, err = iosched.ScheduleWith(ts, iosched.MethodStatic)
	if !errors.Is(err, iosched.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestFacadeShardWorkflow drives the public shard/merge API end to end on
// a small grid: two shards of Figure 5, written to disk, read back,
// merged, and aggregated to the exact unsharded result.
func TestFacadeShardWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := iosched.ShardParams{Systems: 3, Seed: 1, GAPopulation: 10, GAGenerations: 6}
	want, err := iosched.RunExperiment("fig5", p, 0)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, 2)
	for i := range paths {
		f, err := iosched.RunExperimentShard("fig5", p, 0, len(paths), i)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard%d.json", i))
		if err := f.WriteFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	files := make([]*iosched.ShardFile, len(paths))
	for i, path := range paths {
		if files[i], err = iosched.ReadShardFile(path); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := iosched.MergeShardFiles(files)
	if err != nil {
		t.Fatal(err)
	}
	got, err := iosched.ExperimentFromCells("fig5", p, merged.Runs[0].Cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("merged shards differ from the unsharded run")
	}
	// An incomplete shard set must be rejected, not silently aggregated.
	if _, err := iosched.MergeShardFiles(files[:1]); err == nil {
		t.Error("incomplete shard set accepted")
	}
}

func TestFacadeExperimentConfigs(t *testing.T) {
	d := iosched.DefaultExperimentConfig()
	p := iosched.PaperScaleConfig()
	if p.Systems != 1000 || p.GA.Population != 300 || p.GA.Generations != 500 {
		t.Errorf("paper scale = %d systems, GA %dx%d", p.Systems, p.GA.Population, p.GA.Generations)
	}
	if d.Systems >= p.Systems {
		t.Error("default should be smaller than paper scale")
	}
}

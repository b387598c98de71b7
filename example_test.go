package iosched_test

import (
	"fmt"
	"log"
	"strings"

	iosched "repro"
)

// ExampleNewTaskSet builds a small timed-I/O task set and compares the
// timing accuracy the paper's static heuristic achieves against the
// clairvoyant non-preemptive FPS baseline on the same jobs.
func ExampleNewTaskSet() {
	ts, err := iosched.NewTaskSet([]iosched.Task{
		{Name: "sample-adc", C: 2 * iosched.Millisecond, T: 40 * iosched.Millisecond,
			Delta: 10 * iosched.Millisecond, Theta: 10 * iosched.Millisecond},
		{Name: "pwm-hi", C: 1 * iosched.Millisecond, T: 20 * iosched.Millisecond,
			Delta: 5 * iosched.Millisecond, Theta: 5 * iosched.Millisecond},
		{Name: "pwm-lo", C: 1 * iosched.Millisecond, T: 20 * iosched.Millisecond,
			Delta: 15 * iosched.Millisecond, Theta: 5 * iosched.Millisecond},
		{Name: "heartbeat", C: 3 * iosched.Millisecond, T: 80 * iosched.Millisecond,
			Delta: 30 * iosched.Millisecond, Theta: 20 * iosched.Millisecond},
		// Collides with sample-adc's ideal window on purpose.
		{Name: "status-led", C: 2 * iosched.Millisecond, T: 40 * iosched.Millisecond,
			Delta: 10 * iosched.Millisecond, Theta: 10 * iosched.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	ts.AssignDMPO()         // deadline-monotonic priorities
	ts.ApplyPaperQuality(1) // Vmax = P+1, Vmin = 1

	for _, m := range []iosched.Method{iosched.MethodStatic, iosched.MethodFPSOffline} {
		schedules, err := iosched.ScheduleWith(ts, m)
		if err != nil {
			log.Fatal(err)
		}
		psi, ups := schedules.Metrics(iosched.LinearCurve)
		fmt.Printf("%-11s Psi = %.3f  Upsilon = %.3f\n", m, psi, ups)
	}
	// Output:
	// static      Psi = 0.846  Upsilon = 0.960
	// fps-offline Psi = 0.000  Upsilon = 0.263
}

// ExampleRunExperimentShard splits the Figure 5 sweep into three shards —
// as three processes or hosts would — merges the cell files, and rebuilds
// the result, which is identical to the unsharded run's.
func ExampleRunExperimentShard() {
	// Tiny configuration so the example runs in milliseconds; zero values
	// select the CLI defaults.
	params := iosched.ShardParams{Systems: 4, Seed: 1, GAPopulation: 10, GAGenerations: 6}

	var files []*iosched.ShardFile
	for i := 0; i < 3; i++ {
		f, err := iosched.RunExperimentShard("fig5", params, 1, 3, i)
		if err != nil {
			log.Fatal(err)
		}
		// A real sweep persists each shard with f.WriteFile and reloads it
		// with iosched.ReadShardFile on the merging host.
		fmt.Printf("shard %d/3 holds %d cells\n", i, f.CellCount())
		files = append(files, f)
	}

	merged, err := iosched.MergeShardFiles(files)
	if err != nil {
		log.Fatal(err)
	}
	res, err := iosched.ExperimentFromCells("fig5", params, merged.Runs[0].Cells)
	if err != nil {
		log.Fatal(err)
	}
	// One row per utilisation point; a "U" column, then one per method.
	headers, rows := res.Rows()
	fmt.Printf("merged %d cells: %d utilisation points x %d methods\n",
		merged.CellCount(), len(rows), len(headers)-1)
	// Output:
	// shard 0/3 holds 20 cells
	// shard 1/3 holds 20 cells
	// shard 2/3 holds 20 cells
	// merged 60 cells: 15 utilisation points x 5 methods
}

// ExampleRunExperiment drives the experiment registry generically: list
// the registered studies, run one by name, and render its table — the
// workflow every experiment, including a newly registered one
// (docs/EXPERIMENTS.md), runs through.
func ExampleRunExperiment() {
	params := iosched.ShardParams{Systems: 3, Seed: 1}

	var names []string
	for _, e := range iosched.Experiments() {
		names = append(names, e.Name())
	}
	fmt.Println(strings.Join(names, " "))

	res, err := iosched.RunExperiment("tailq", params, 1)
	if err != nil {
		log.Fatal(err)
	}
	headers, rows := res.Rows()
	fmt.Printf("tailq: %d columns x %d utilisation points, first column %q\n",
		len(headers), len(rows), headers[0])
	// Output:
	// fig5 fig6 fig7 table1 motivation ablation multidevice jitter tailq
	// tailq: 8 columns x 15 utilisation points, first column "U"
}

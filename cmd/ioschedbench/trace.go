package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/gen"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/sched/ga"
	"repro/internal/taskmodel"
	"repro/internal/textplot"
	"repro/internal/timing"
)

// runTrace is the trace subcommand: it generates one paper-style task
// set, schedules it with the chosen method, prints the per-job schedule
// with quality annotations and an ASCII Gantt chart per device, then
// runs the deployed schedule on the simulated controller and reports the
// hardware-level accuracy.
//
//	ioschedbench trace -method static -u 0.5 -seed 3
func runTrace(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		method = fs.String("method", "static", "static|ga|fps-offline|gpiocp")
		u      = fs.Float64("u", 0.5, "system utilisation")
		seed   = fs.Int64("seed", 1, "random seed")
		gaPop  = fs.Int("gapop", 60, "GA population")
		gaGens = fs.Int("gagens", 80, "GA generations")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(*seed)), *u)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "system: %d tasks, U = %.3f, hyper-period %v\n",
		len(ts.Tasks), ts.Utilization(), ts.Hyperperiod())
	taskHeaders := []string{"task", "C", "T", "P", "delta", "theta", "Vmax"}
	var taskRows [][]string
	for i := range ts.Tasks {
		t := &ts.Tasks[i]
		taskRows = append(taskRows, []string{
			fmt.Sprintf("tau%d", t.ID), t.C.String(), t.T.String(),
			fmt.Sprintf("%d", t.P), t.Delta.String(), t.Theta.String(),
			fmt.Sprintf("%.0f", t.Vmax),
		})
	}
	fmt.Fprintln(w, textplot.Table(taskHeaders, taskRows))

	gaOpts := ga.DefaultOptions()
	gaOpts.Population, gaOpts.Generations, gaOpts.Seed = *gaPop, *gaGens, *seed
	scheduler, err := core.NewScheduler(core.Method(*method), &gaOpts)
	if err != nil {
		return err
	}
	sys, err := traceSystem(ts)
	if err != nil {
		return err
	}
	// Schedule once: the schedules printed below are the ones deployed.
	d, err := sys.Run(scheduler, 1)
	if err != nil {
		return err
	}
	psi, ups := d.Metrics()
	fmt.Fprintf(w, "method %s: Psi = %.3f, Upsilon = %.3f\n\n", scheduler.Name(), psi, ups)

	curve := quality.Linear{}
	for _, dev := range ts.Devices() {
		s := d.Schedules[dev]
		fmt.Fprintf(w, "device %d schedule (%d jobs):\n", dev, len(s.Entries))
		headers := []string{"job", "start", "ideal", "dev", "C", "quality"}
		var rows [][]string
		for i := range s.Entries {
			e := &s.Entries[i]
			rows = append(rows, []string{
				e.Job.ID.String(), e.Start.String(), e.Job.Ideal.String(),
				timing.Abs(e.Start - e.Job.Ideal).String(), e.Job.C.String(),
				fmt.Sprintf("%.2f/%.0f", curve.Value(&e.Job, e.Start), e.Job.Vmax),
			})
		}
		fmt.Fprintln(w, textplot.Table(headers, rows))
		fmt.Fprintln(w, gantt(s, ts.Hyperperiod()))
	}

	d.Simulate()
	report, err := d.Verify()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hardware verification: %d executions, all at scheduled cycles\n", len(report.Events))
	fmt.Fprintf(w, "hardware accuracy vs ideal: exact %.3f, mean |dev| %.0f cycles, max %d cycles\n",
		report.ExactFraction(), report.MeanDeviation, report.MaxDeviation)
	return nil
}

// traceSystem deploys the task set on one 32-pin GPIO bank: every task
// toggles its own pin, and every device partition drives the bank.
func traceSystem(ts *taskmodel.TaskSet) (*core.System, error) {
	bank, err := device.NewGPIOBank("gpio", 32)
	if err != nil {
		return nil, err
	}
	progs := map[int]controller.Program{}
	for i := range ts.Tasks {
		progs[ts.Tasks[i].ID] = controller.Program{
			{Op: controller.OpTogglePin, Pin: device.Pin(i % 32)},
		}
	}
	execs := map[taskmodel.DeviceID]controller.Executor{}
	for _, dev := range ts.Devices() {
		execs[dev] = controller.GPIOExecutor{Bank: bank}
	}
	return &core.System{Tasks: ts, Programs: progs, Executors: execs, Clock: timing.Clock10MHz}, nil
}

// gantt renders a coarse one-line-per-task occupancy chart.
func gantt(s *sched.Schedule, h timing.Time) string {
	const cols = 96
	perCol := h / cols
	if perCol == 0 {
		perCol = 1
	}
	rows := map[int][]byte{}
	for i := range s.Entries {
		e := &s.Entries[i]
		row, ok := rows[e.Job.ID.Task]
		if !ok {
			row = []byte(strings.Repeat(".", cols))
			rows[e.Job.ID.Task] = row
		}
		from := int(e.Start / perCol)
		to := int((e.Start + e.Job.C) / perCol)
		for c := from; c <= to && c < cols; c++ {
			row[c] = '#'
		}
		// Mark the ideal start.
		if c := int(e.Job.Ideal / perCol); c < cols && row[c] == '.' {
			row[c] = '|'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "gantt (one hyper-period, # = execution, | = unmet ideal):\n")
	for task := 0; task < len(rows)+8; task++ {
		row, ok := rows[task]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  tau%-3d %s\n", task, string(row))
	}
	return b.String()
}

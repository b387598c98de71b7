package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/sched/staticsched"
	"repro/internal/taskmodel"
)

// The jitter experiment's seed path: its private stream and the per-cell
// system-generation sub-stream (internal/experiment's streamJitter and
// subGen), so replay-dense replays the systems the jitter experiment
// generates.
const (
	streamJitter int64 = 7
	subGen       int64 = 0
)

// replayOptions are the harness settings: a 1 µs schedule tick replays in
// 100 ns, so dispatches come ten times denser than real time.
var replayOptions = replay.Options{Tick: 100 * time.Nanosecond, Cap: 300 * time.Millisecond, Warmup: 64, Pin: true}

// replayDense is replay-dense: static schedules of generated systems
// replayed one system per step. Its ops are the dispatches, timed from
// the instant each was due: an op's latency is its deviation.
type replayDense struct {
	e          env
	systems    []sched.DeviceSchedules // schedulable systems, utilisations interleaved
	next       int
	scheduling time.Duration
}

func setupReplay(ctx context.Context, e env) (instance, error) {
	r := &replayDense{e: e}
	static := staticsched.New(staticsched.Options{})
	us := []float64{0.3, 0.5, 0.7}
	for s := 0; s < e.sz.replaySystems; s++ {
		for ui, u := range us {
			ts, err := gen.PaperConfig().System(exec.RNG(e.seed, streamJitter, int64(ui), int64(s), subGen), u)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			ds, err := sched.ScheduleAll(ts, static)
			r.scheduling += time.Since(start)
			if errors.Is(err, sched.ErrInfeasible) {
				continue
			}
			if err != nil {
				return nil, err
			}
			r.systems = append(r.systems, ds)
		}
	}
	if len(r.systems) == 0 {
		return nil, fmt.Errorf("no schedulable system to replay")
	}
	return r, nil
}

func (r *replayDense) clients() int { return 1 }

func (r *replayDense) minOps() int { return r.e.sz.replayMinDispatches }

func (r *replayDense) step(ctx context.Context, p *phase) error {
	ds := r.systems[r.next%len(r.systems)]
	r.next++
	root := p.tr.root("replay.system")
	var rep *replay.Report
	if err := p.tr.do(root, "replay", "replay.run_s", func() (err error) {
		rep, err = replay.Run(ds, replayOptions)
		return err
	}); err != nil {
		return err
	}
	p.tr.end(root)
	if err := checkReplay(ds, rep); err != nil {
		return err
	}
	for i := range rep.Samples {
		s := &rep.Samples[i]
		p.op(s.Offset())
		p.sample("dev_us", float64(s.Offset())/float64(time.Microsecond))
		if s.Missed() {
			p.count("missed", 1)
		}
		if s.Offset() == 0 {
			p.count("exact", 1)
		}
	}
	for _, d := range rep.Devices {
		p.count("skipped", float64(d.Skipped))
		p.count("devices", 1)
		if d.Pinned {
			p.count("pinned", 1)
		}
		if d.CPUValid {
			p.count("cpu_s", d.CPU.Seconds())
			p.count("device_wall_s", d.Wall.Seconds())
		}
	}
	p.delivered(1, len(rep.Samples), 0)
	return nil
}

// checkReplay verifies a report against the schedule it replayed: every
// entry dispatched or skipped, each sample at its entry's scaled start
// instant or later, in device and entry order.
func checkReplay(ds sched.DeviceSchedules, rep *replay.Report) error {
	devs := make([]taskmodel.DeviceID, 0, len(ds))
	for d := range ds {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(a, b int) bool { return devs[a] < devs[b] })
	if len(rep.Devices) != len(devs) {
		return fmt.Errorf("replay reported %d devices for %d partitions", len(rep.Devices), len(devs))
	}
	k := 0
	for i, dev := range devs {
		dr, entries := rep.Devices[i], ds[dev].Entries
		if dr.Device != dev || dr.Dispatched+dr.Skipped != len(entries) {
			return fmt.Errorf("device %d: %d dispatched + %d skipped of %d entries", dev, dr.Dispatched, dr.Skipped, len(entries))
		}
		for _, e := range entries[:dr.Dispatched] {
			if k >= len(rep.Samples) {
				return fmt.Errorf("device %d: samples end early", dev)
			}
			s := rep.Samples[k]
			k++
			want := time.Duration(e.Start.Microseconds()) * replayOptions.Tick
			if s.Device != dev || s.Job != e.Job.ID || s.Intended != want || s.Actual < s.Intended {
				return fmt.Errorf("device %d job %v: sample intended %v actual %v, schedule says %v", dev, e.Job.ID, s.Intended, s.Actual, want)
			}
		}
	}
	if k != len(rep.Samples) || rep.Stats.Dispatched != k {
		return fmt.Errorf("%d samples for %d dispatches", len(rep.Samples), k)
	}
	return nil
}

func (r *replayDense) report(p *phase, m metrics) {
	c := p.counts
	n := float64(len(p.ops))
	dev := p.samples["dev_us"]
	m.set("dev_p50_us", percentile(dev, 50), "us")
	m.set("dev_p99_us", percentile(dev, 99), "us")
	m.set("missed_frac", c["missed"]/max(n, 1), "fraction")
	if p.tr == nil {
		return
	}
	m.set("replay.dispatches", n, "count")
	m.set("replay.skipped", c["skipped"], "count")
	m.set("replay.exact_frac", c["exact"]/max(n, 1), "fraction")
	m.set("replay.dev_max_us", percentile(dev, 100), "us")
	m.set("replay.cpu_per_dispatch_us", c["cpu_s"]*1e6/max(n, 1), "us")
	m.set("replay.cpu_over_wall", c["cpu_s"]/max(c["device_wall_s"], 1e-9), "fraction")
	m.set("replay.pinned_frac", c["pinned"]/max(c["devices"], 1), "fraction")
	m.set("sched.static.schedule_s", r.scheduling.Seconds(), "s")
}

// verify has nothing left to check: every report was checked against its
// schedule as it arrived, and the measurements have no reference digest.
func (r *replayDense) verify() (string, error) { return "", nil }

func (r *replayDense) close() error { return nil }

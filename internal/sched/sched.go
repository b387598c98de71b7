package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/quality"
	"repro/internal/taskmodel"
	"repro/internal/timing"
)

// ErrInfeasible is returned by schedulers that cannot produce a feasible
// schedule for the given jobs. Callers distinguish it from programming
// errors with errors.Is.
var ErrInfeasible = errors.New("sched: no feasible schedule")

// Entry is one scheduled job execution: job λi^j starts at Start and
// occupies the device for Job.C.
type Entry struct {
	Job   taskmodel.Job
	Start timing.Time
}

// End returns the finish instant of the entry.
func (e *Entry) End() timing.Time { return e.Start + e.Job.C }

// Schedule is an explicit non-preemptive schedule for one device partition:
// every job of the partition with its decided start time κ, ordered by
// start time.
type Schedule struct {
	Entries []Entry
}

// New builds a Schedule from jobs and their start times, sorts it, and
// validates it. It returns an error if any job lacks a start time or the
// result violates Constraint 1 or 2.
func New(jobs []taskmodel.Job, starts quality.StartTimes) (*Schedule, error) {
	s := &Schedule{Entries: make([]Entry, 0, len(jobs))}
	for i := range jobs {
		k, ok := starts[jobs[i].ID]
		if !ok {
			return nil, fmt.Errorf("sched: job %v has no start time", jobs[i].ID)
		}
		s.Entries = append(s.Entries, Entry{Job: jobs[i], Start: k})
	}
	s.Sort()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Sort orders entries by start time, breaking ties by priority (higher
// first) and then job ID for determinism. Two entries can only share a
// start time transiently, before validation rejects the overlap, unless one
// of them has zero cost.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Entries, func(a, b int) bool {
		ea, eb := &s.Entries[a], &s.Entries[b]
		if ea.Start != eb.Start {
			return ea.Start < eb.Start
		}
		if ea.Job.P != eb.Job.P {
			return ea.Job.P > eb.Job.P
		}
		if ea.Job.ID.Task != eb.Job.ID.Task {
			return ea.Job.ID.Task < eb.Job.ID.Task
		}
		return ea.Job.ID.J < eb.Job.ID.J
	})
}

// Validate checks Constraint 1 (window containment), Constraint 2
// (non-overlap), single-device membership, and that no job appears twice.
// Entries must already be sorted by start time.
func (s *Schedule) Validate() error {
	seen := make(map[taskmodel.JobID]bool, len(s.Entries))
	for i := range s.Entries {
		e := &s.Entries[i]
		if seen[e.Job.ID] {
			return fmt.Errorf("sched: job %v scheduled twice", e.Job.ID)
		}
		seen[e.Job.ID] = true
		if e.Start < e.Job.Release {
			return fmt.Errorf("sched: job %v starts at %v before release %v",
				e.Job.ID, e.Start, e.Job.Release)
		}
		if e.End() > e.Job.Deadline {
			return fmt.Errorf("sched: job %v ends at %v after deadline %v (%w)",
				e.Job.ID, e.End(), e.Job.Deadline, ErrInfeasible)
		}
		if i > 0 {
			prev := &s.Entries[i-1]
			if prev.Job.Device != e.Job.Device {
				return fmt.Errorf("sched: schedule mixes devices %d and %d",
					prev.Job.Device, e.Job.Device)
			}
			if e.Start < prev.Start {
				return fmt.Errorf("sched: entries not sorted at index %d", i)
			}
			if e.Start < prev.End() {
				return fmt.Errorf("sched: jobs %v and %v overlap on device %d ([%v,%v) vs [%v,%v))",
					prev.Job.ID, e.Job.ID, e.Job.Device,
					prev.Start, prev.End(), e.Start, e.End())
			}
		}
	}
	return nil
}

// StartTimes returns the κ map of the schedule.
func (s *Schedule) StartTimes() quality.StartTimes {
	out := make(quality.StartTimes, len(s.Entries))
	for i := range s.Entries {
		out[s.Entries[i].Job.ID] = s.Entries[i].Start
	}
	return out
}

// Jobs returns the jobs in entry order.
func (s *Schedule) Jobs() []taskmodel.Job {
	out := make([]taskmodel.Job, len(s.Entries))
	for i := range s.Entries {
		out[i] = s.Entries[i].Job
	}
	return out
}

// Psi returns the fraction of exactly-accurate jobs (Equation 1).
func (s *Schedule) Psi() float64 {
	psi, err := quality.Psi(s.Jobs(), s.StartTimes())
	if err != nil {
		// Unreachable: StartTimes is built from the same entries.
		panic(err)
	}
	return psi
}

// Upsilon returns the normalised quality (Equation 2) under the curve.
func (s *Schedule) Upsilon(curve quality.Curve) float64 {
	ups, err := quality.Upsilon(s.Jobs(), s.StartTimes(), curve)
	if err != nil {
		panic(err)
	}
	return ups
}

// Makespan returns the finish instant of the last entry, or 0 for an empty
// schedule.
func (s *Schedule) Makespan() timing.Time {
	if len(s.Entries) == 0 {
		return 0
	}
	last := &s.Entries[len(s.Entries)-1]
	return last.End()
}

// ResponseBound returns the task's worst-case release-relative completion
// bound: the maximum of (finish − release) over all the task's jobs in
// the schedule. This per-period bound — not an absolute instant — is the
// value Section III-C proposes exporting to higher-level (e.g. NoC
// end-to-end) schedulability analyses, where it composes with per-period
// network bounds. The boolean reports whether the task has any job in the
// schedule. For the absolute finish instant of the whole schedule, see
// Makespan.
func (s *Schedule) ResponseBound(task int) (timing.Time, bool) {
	var worst timing.Time
	found := false
	for i := range s.Entries {
		e := &s.Entries[i]
		if e.Job.ID.Task != task {
			continue
		}
		found = true
		if rel := e.End() - e.Job.Release; rel > worst {
			worst = rel
		}
	}
	return worst, found
}

// Scheduler produces a schedule for the jobs of one device partition.
// Implementations must be deterministic given their configuration (any
// randomness must come from an injected seed or *rand.Rand), and Schedule
// must be safe for concurrent calls on distinct job slices —
// ScheduleAllParallel runs one call per device partition across a worker
// pool.
type Scheduler interface {
	// Name identifies the method in experiment output ("static", "GA", ...).
	Name() string
	// Schedule computes start times for the given jobs. It returns
	// ErrInfeasible (possibly wrapped) when no feasible schedule is found.
	Schedule(jobs []taskmodel.Job) (*Schedule, error)
}

// DeviceSchedules maps each device partition to its schedule.
type DeviceSchedules map[taskmodel.DeviceID]*Schedule

// ScheduleAll runs the scheduler independently on every device partition of
// the task set (the fully-partitioned model), one partition at a time. It
// fails with the first infeasible partition in device order.
func ScheduleAll(ts *taskmodel.TaskSet, s Scheduler) (DeviceSchedules, error) {
	return ScheduleAllParallel(ts, s, 1)
}

// ScheduleAllParallel is ScheduleAll with the device partitions scheduled
// concurrently on a bounded worker pool (parallelism <= 0 selects one
// worker per CPU). The scheduling model is fully partitioned — partitions
// share no state — so this is safe by construction, and because results
// and errors are collected in device order the outcome is identical to
// ScheduleAll at every parallelism level.
func ScheduleAllParallel(ts *taskmodel.TaskSet, s Scheduler, parallelism int) (DeviceSchedules, error) {
	devs := ts.Devices()
	parts := ts.JobsByDevice()
	scheds, err := exec.Map(exec.New(parallelism), context.Background(), len(devs),
		func(_ context.Context, i int) (*Schedule, error) {
			sc, err := s.Schedule(parts[devs[i]])
			if err != nil {
				return nil, fmt.Errorf("device %d: %w", devs[i], err)
			}
			return sc, nil
		})
	if err != nil {
		return nil, err
	}
	out := make(DeviceSchedules, len(devs))
	for i, dev := range devs {
		out[dev] = scheds[i]
	}
	return out, nil
}

// Metrics aggregates Ψ and Υ across all device partitions. Partitions are
// visited in device order: the quality sums are floating-point, so a fixed
// summation order is what keeps the value reproducible bit for bit.
func (ds DeviceSchedules) Metrics(curve quality.Curve) (psi, upsilon float64) {
	devs := make([]taskmodel.DeviceID, 0, len(ds))
	for dev := range ds {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(a, b int) bool { return devs[a] < devs[b] })
	var jobs []taskmodel.Job
	starts := quality.StartTimes{}
	for _, dev := range devs {
		s := ds[dev]
		jobs = append(jobs, s.Jobs()...)
		for id, k := range s.StartTimes() {
			starts[id] = k
		}
	}
	p, err := quality.Psi(jobs, starts)
	if err != nil {
		panic(err)
	}
	u, err := quality.Upsilon(jobs, starts, curve)
	if err != nil {
		panic(err)
	}
	return p, u
}

// FreeSlot is a maximal idle interval [Start, End) on a device timeline.
type FreeSlot struct {
	Start, End timing.Time
}

// Len returns the slot capacity.
func (f FreeSlot) Len() timing.Time { return f.End - f.Start }

// FreeSlots returns the maximal idle intervals of the schedule within
// [0, horizon): every returned slot satisfies 0 <= Start < End <= horizon.
// Entries at or past the horizon only bound the idle time before them —
// they never produce slots outside the window. Entries must be sorted and
// non-overlapping (i.e. the schedule must be valid).
func (s *Schedule) FreeSlots(horizon timing.Time) []FreeSlot {
	var out []FreeSlot
	cursor := timing.Time(0)
	for i := range s.Entries {
		if cursor >= horizon {
			return out
		}
		e := &s.Entries[i]
		if start := min(e.Start, horizon); start > cursor {
			out = append(out, FreeSlot{Start: cursor, End: start})
		}
		if end := e.End(); end > cursor {
			cursor = end
		}
	}
	if cursor < horizon {
		out = append(out, FreeSlot{Start: cursor, End: horizon})
	}
	return out
}

// String renders a compact single-line summary, useful in test failures.
func (s *Schedule) String() string {
	if len(s.Entries) == 0 {
		return "schedule{}"
	}
	out := "schedule{"
	for i := range s.Entries {
		e := &s.Entries[i]
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%v@%v", e.Job.ID, e.Start)
	}
	return out + "}"
}

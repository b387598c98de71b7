// Package iosched is the public facade of the reproduction of
// "Timing-Accurate General-Purpose I/O for Multi- and Many-Core Systems:
// Scheduling and Hardware Support" (Zhao et al., DAC 2020).
//
// It re-exports the task model, the two proposed scheduling methods (the
// Ψ-maximising heuristic and the multi-objective GA), the FPS and GPIOCP
// baselines, the quality metrics Ψ and Υ, the synthetic system generator,
// the wall-clock replay harness, and the experiment registry that
// regenerates every table and figure of the paper — and any study
// registered alongside them — with its shard, merge and dispatch
// workflow. The cycle-accurate controller, the NoC and the coordinator
// service live in internal packages; the CLI (cmd/ioschedbench) and the
// package examples drive them.
//
// Quick start:
//
//	ts, _ := iosched.NewTaskSet([]iosched.Task{{
//		Name: "injector", C: 1 * iosched.Millisecond,
//		T: 20 * iosched.Millisecond, Delta: 8 * iosched.Millisecond,
//		Theta: 5 * iosched.Millisecond,
//	}})
//	ts.AssignDMPO()
//	ts.ApplyPaperQuality(1)
//	schedules, _ := iosched.ScheduleWith(ts, iosched.MethodStatic)
//	psi, upsilon := schedules.Metrics(iosched.LinearCurve)
//
// # Parallel execution
//
// Every compute-heavy layer runs on the deterministic parallel execution
// engine in internal/exec: device partitions are scheduled concurrently
// (ScheduleAllParallel), the GA evaluates population fitness in parallel
// chunks (GAOptions.Parallelism), and the experiment runners fan their
// systems × utilisation grids across a bounded worker pool
// (RunExperiment's parallelism). The engine's invariant — enforced by
// the parallel/serial equivalence tests — is that parallelism only
// changes wall-clock time, never results: parallelism 1 and NumCPU
// produce byte-identical schedules, fronts and figures for the same
// seed. Pick Parallelism 0 (one worker per CPU) for throughput, 1 to
// debug serially, or an explicit bound to share a host; randomness is
// always derived per task from mixed sub-seeds, never drawn from a
// shared source across goroutines.
//
// # Experiment registry
//
// Every study is a registered Experiment: a named grid, a per-cell
// computation with a grid-path-derived seed, a versioned payload codec,
// and a fixed-order aggregation with render hooks. Experiments() lists
// them, RunExperiment runs one, and RegisterExperiment plugs a new study
// into running, sharding, dispatch, partial merges and the CLI at once —
// no per-experiment plumbing anywhere else. docs/EXPERIMENTS.md walks
// through adding an experiment, using the tailq study as the worked
// example.
//
// # Sharding
//
// The same invariant extends across process — and machine — boundaries:
// every grid cell derives its randomness from its (experiment, point,
// system) path, so any subset of cells can be evaluated anywhere and
// reassembled. RunExperimentShard evaluates one round-robin shard of a
// selection and returns a versioned cell file (ShardFile.WriteFile,
// ReadShardFile); MergeShardFiles checks that N shard files form one
// complete, disjoint cover of the same run and returns the single-shard
// equivalent; ExperimentFromCells rebuilds the exact results an
// unsharded run produces. Cell files persist as indented JSON (v1) or as
// the compact binary/columnar container (v2, ShardFile.WriteFileAs with
// "binary"); readers auto-detect per file, so covers may mix encodings.
// The CLI equivalents are -shards, -shard-index, -out, -codec and the
// merge subcommand; both formats are specified in docs/SHARD_FORMAT.md.
//
// # Dispatch
//
// DispatchShards drives the sharded workflow fault-tolerantly: it fans
// the units out to a pool of DispatchWorkers (a warm local "ioschedbench
// tasks" child per LocalProcWorker; CmdWorker runs a command template —
// e.g. ssh — once per unit), re-runs units whose worker crashed, timed
// out or produced a corrupt file, journals progress so an interrupted
// dispatch resumes, and merges the complete cover. DispatchOptions.Balance
// selects round-robin shards or cost-packed cell batches, and
// DispatchOptions.Steal lets idle workers race a duplicate of the
// heaviest straggler. Every decomposition merges byte-identical to the
// unsharded run. The CLI equivalent is "ioschedbench dispatch".
//
// # Streaming
//
// MergeShardFilesPartial merges any consistent subset of a run's shard
// files into a provisional cover with exact accounting of what is
// missing, and ExperimentFromCellsPartial renders it with per-point
// coverage. A dispatch streams the same information live: typed progress
// events (DispatchOptions.Progress: exactly the events its journal
// records, folded into per-shard state and an ETA by DispatchTracker),
// periodic auto-partial merges (DispatchOptions.PartialEvery) and a
// pure-reader view of any journal (ReadDispatchJournal), folded by the
// Tracker's own reducer. Partial output is the full run's aggregation
// restricted to the present cells, so it converges byte-identically to
// the final figures. The CLI equivalents are "merge -partial", "dispatch
// -progress -partial-every" and "status"; docs/DISPATCH.md specifies the
// journal and progress-event schemas.
//
// # Coordinator service
//
// DispatchShards drives one sweep from one process over a shared
// filesystem. "ioschedbench serve" lifts the same engine into a
// long-running network service that "work" processes lease units from
// and push result files to over HTTP, with "submit" as the sweep
// client; the merged output stays byte-identical to the unsharded run
// through every failure mode. The wire protocol is specified in
// docs/COORDINATOR.md.
//
// # Wall-clock replay
//
// Everything above evaluates schedules analytically. Replay executes
// one: each device partition gets a locked OS thread (pinned to a CPU
// where the platform allows), and a sleep-then-spin timer loop fires
// every schedule entry at its scaled instant against the real clock,
// recording intended-versus-actual dispatch times. The result is the
// delivered timing accuracy of this machine — jitter distributions,
// exact-dispatch counts, missed deadlines — rather than the scheduled
// quality. Such measurements are deliberately outside the determinism
// invariant: the jitter experiment registers as non-reproducible
// (ExperimentReproducible reports false), is excluded from the "all"
// selection, never enters the cell cache, and its shard files carry a
// HostFingerprint. ReplaySimClock substitutes a deterministic simulated
// clock for unit tests. The CLI equivalent is "ioschedbench replay";
// the harness is specified in docs/REPLAY.md.
package iosched

import (
	"context"

	"repro/internal/core"
	"repro/internal/dispatch"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/hwcost"
	"repro/internal/quality"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/sched/fps"
	"repro/internal/sched/ga"
	"repro/internal/sched/gpiocp"
	"repro/internal/sched/staticsched"
	"repro/internal/shard"
	"repro/internal/taskmodel"
	"repro/internal/timing"
)

// Time units (integer microsecond time base).
type (
	// Time is an instant or duration on the scheduling timeline (µs).
	Time = timing.Time
	// Cycle is an instant or duration on the hardware timeline.
	Cycle = timing.Cycle
	// ClockHz is a controller clock frequency.
	ClockHz = timing.ClockHz
)

// Re-exported time constants.
const (
	Microsecond = timing.Microsecond
	Millisecond = timing.Millisecond
	Second      = timing.Second
	// HyperPeriod1440ms is the evaluation's hyper-period.
	HyperPeriod1440ms = timing.HyperPeriod1440ms
	// Clock100MHz is the default controller clock.
	Clock100MHz = timing.Clock100MHz
)

// Task model (Section II).
type (
	// Task is the timed I/O task 6-tuple {C, T, D, P, δ, θ}.
	Task = taskmodel.Task
	// TaskSet is an ordered set of tasks with DMPO and quality helpers.
	TaskSet = taskmodel.TaskSet
	// Job is one release λi^j with its absolute window.
	Job = taskmodel.Job
	// JobID identifies a job by task index and release index.
	JobID = taskmodel.JobID
	// DeviceID identifies an I/O device partition.
	DeviceID = taskmodel.DeviceID
)

// NewTaskSet validates and normalises a task set (implicit deadlines are
// filled in, IDs assigned by position).
func NewTaskSet(tasks []Task) (*TaskSet, error) { return taskmodel.NewTaskSet(tasks) }

// Scheduling (Section III).
type (
	// Schedule is an explicit per-device schedule.
	Schedule = sched.Schedule
	// DeviceSchedules maps device partitions to schedules.
	DeviceSchedules = sched.DeviceSchedules
	// Scheduler is the common scheduling interface.
	Scheduler = sched.Scheduler
	// StaticOptions configures the Ψ-maximising heuristic (Algorithm 1).
	StaticOptions = staticsched.Options
	// GAOptions configures the multi-objective GA.
	GAOptions = ga.Options
	// GAResult is the GA's non-dominated front.
	GAResult = ga.Result
	// GASolution is one front member.
	GASolution = ga.Solution
)

// ErrInfeasible is returned when no feasible schedule exists; test with
// errors.Is.
var ErrInfeasible = sched.ErrInfeasible

// Method names a scheduling method.
type Method = core.Method

// The available methods.
const (
	MethodStatic     = core.MethodStatic
	MethodGA         = core.MethodGA
	MethodFPSOffline = core.MethodFPSOffline
	MethodGPIOCP     = core.MethodGPIOCP
)

// NewStaticScheduler returns the paper's heuristic scheduler (Algorithm 1:
// dependency-graph decomposition + LCC-D allocation).
func NewStaticScheduler(opts StaticOptions) Scheduler { return staticsched.New(opts) }

// NewGAScheduler returns the multi-objective GA scheduler.
func NewGAScheduler(opts GAOptions) Scheduler { return &ga.Scheduler{Opts: opts} }

// NewFPSOffline returns the clairvoyant non-preemptive FPS baseline.
func NewFPSOffline() Scheduler { return fps.Offline{} }

// NewGPIOCP returns the GPIOCP FIFO baseline.
func NewGPIOCP() Scheduler { return gpiocp.Scheduler{} }

// GASolve runs the GA on one device partition's jobs and returns the
// non-dominated (Ψ, Υ) front.
func GASolve(jobs []Job, opts GAOptions) (*GAResult, error) { return ga.Solve(jobs, opts) }

// GADefaultOptions returns the GA's scaled-down default budget.
func GADefaultOptions() GAOptions { return ga.DefaultOptions() }

// ScheduleWith runs the named method on every device partition of the
// task set, one partition at a time on one goroutine. The GA runs with
// seed 1, core.NewScheduler's nil-options default; for a parallel GA use
// GASolve with GAOptions.Parallelism, or ScheduleAllParallel.
func ScheduleWith(ts *TaskSet, m Method) (DeviceSchedules, error) {
	var gaOpts *ga.Options
	if m == MethodGA {
		o := ga.DefaultOptions()
		o.Seed, o.Parallelism = 1, 1
		gaOpts = &o
	}
	s, err := core.NewScheduler(m, gaOpts)
	if err != nil {
		return nil, err
	}
	return sched.ScheduleAllParallel(ts, s, 1)
}

// ScheduleAllParallel runs the scheduler concurrently over the task set's
// device partitions on a bounded worker pool (parallelism <= 0 means one
// worker per CPU); the result is identical at every parallelism. When s
// is a GA scheduler, set its GAOptions.Parallelism to 1 so the
// per-partition fitness pools do not nest inside this one.
func ScheduleAllParallel(ts *TaskSet, s Scheduler, parallelism int) (DeviceSchedules, error) {
	return sched.ScheduleAllParallel(ts, s, parallelism)
}

// FPSOnlineSchedulable applies the worst-case non-preemptive
// response-time analysis (the "FPS-online" baseline) to one partition's
// tasks.
func FPSOnlineSchedulable(tasks []Task) bool { return fps.Analyze(tasks).Schedulable }

// Quality model (Section II, Figure 1).
type (
	// Curve maps a job and start instant to a quality value.
	Curve = quality.Curve
	// StartTimes maps jobs to their start instants κ.
	StartTimes = quality.StartTimes
)

// LinearCurve is the paper's evaluation curve: Vmax at δ, linear decay to
// Vmin at δ±θ.
var LinearCurve Curve = quality.Linear{}

// Psi returns Ψ = |exact jobs| / |jobs| (Equation 1).
func Psi(jobs []Job, starts StartTimes) (float64, error) { return quality.Psi(jobs, starts) }

// Upsilon returns Υ = ΣV(κ)/ΣV(δ) (Equation 2).
func Upsilon(jobs []Job, starts StartTimes, c Curve) (float64, error) {
	return quality.Upsilon(jobs, starts, c)
}

// Synthetic system generation (Section V-A).
type GenConfig = gen.Config

// PaperGenConfig returns the evaluation's generator parameterisation.
func PaperGenConfig() GenConfig { return gen.PaperConfig() }

// Experiments (Section V) — the pluggable experiment registry; see
// cmd/ioschedbench for the CLI and docs/EXPERIMENTS.md for the "add an
// experiment" walkthrough.
type (
	// ExperimentConfig is the sweep configuration of the experiment
	// runners.
	ExperimentConfig = experiment.Config
	// Experiment is one registered study: grid, per-cell computation with
	// its derived-seed path, versioned payload codec, and fixed-order
	// aggregation with render hooks. Implement and register it to plug a
	// new study into running, sharding, dispatch, partial merges and the
	// CLI at once.
	Experiment = experiment.Experiment
	// ExperimentResult is a registered experiment's aggregated dataset.
	ExperimentResult = experiment.Result
	// ExperimentRunContext is the resolved configuration an experiment's
	// hooks see.
	ExperimentRunContext = experiment.RunContext
	// ExperimentCodec is an experiment's versioned cell-payload codec.
	ExperimentCodec = experiment.Codec
	// MotivationConfig parameterises the Section I latency experiment.
	MotivationConfig = experiment.MotivationConfig
)

// DefaultExperimentConfig returns the scaled-down experiment configuration;
// PaperScaleConfig the full 1000-system, GA-300×500 configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiment.Default() }
func PaperScaleConfig() ExperimentConfig        { return experiment.PaperScale() }

// Experiments returns the registered experiments in the canonical "all"
// order — the paper's five studies plus any study registered through
// RegisterExperiment.
func Experiments() []Experiment { return experiment.All() }

// LookupExperiment returns the registered experiment with the given
// name.
func LookupExperiment(name string) (Experiment, bool) { return experiment.Lookup(name) }

// RegisterExperiment adds a new study to the registry, wiring it into
// RunExperiment, RunExperimentShard, DispatchShards,
// ExperimentFromCells[Partial] and the CLI's selection set at once. Registering a
// duplicate name panics.
func RegisterExperiment(e Experiment) { experiment.Register(e) }

// RunExperiment runs the named registered experiment in process:
// it evaluates the full cell grid (fanned across parallelism workers;
// <= 0 selects one per CPU) and aggregates it — the same two phases a
// sharded run splits across processes, so results are identical either
// way.
func RunExperiment(name string, p ShardParams, parallelism int) (ExperimentResult, error) {
	return experiment.Run(name, p.Context(parallelism))
}

// ExperimentFromCells rebuilds the named experiment's result from a
// complete (merged) cell set — identical to what RunExperiment computes
// in process.
func ExperimentFromCells(name string, p ShardParams, cells []ShardCell) (ExperimentResult, error) {
	return experiment.FromCells(name, p.Context(0), cells)
}

// ExperimentFromCellsPartial rebuilds a provisional result from any
// subset of the named experiment's grid cells, with exact coverage: the
// full run's aggregation restricted to the present cells. A nil result
// (with nil error) means the experiment has no provisional result for
// the subset.
func ExperimentFromCellsPartial(name string, p ShardParams, cells []ShardCell) (ExperimentResult, ExperimentCoverage, error) {
	return experiment.FromCellsPartial(name, p.Context(0), cells)
}

// Wall-clock replay (see the package comment's Wall-clock replay
// section and docs/REPLAY.md).
type (
	// ReplayOptions configures the replay harness: tick scale, horizon
	// cap, warmup, pinning and an optional injected clock.
	ReplayOptions = replay.Options
	// ReplayReport is one replay run's delivered-timing census.
	ReplayReport = replay.Report
	// ReplayStats is the reduced jitter distribution of a report.
	ReplayStats = replay.Stats
	// ReplaySample is one dispatch's intended-versus-actual record.
	ReplaySample = replay.Sample
	// ReplayDeviceReport is one executor thread's summary.
	ReplayDeviceReport = replay.DeviceReport
	// ReplayClock is the harness's injectable time source.
	ReplayClock = replay.Clock
	// ReplaySimClock is the deterministic simulated clock for tests.
	ReplaySimClock = replay.SimClock
)

// Replay executes the schedules in real time — one locked, pinned
// executor thread per device — and reports the delivered dispatch
// timing. With ReplayOptions.Clock set it replays deterministically
// against the injected clock instead.
func Replay(ds DeviceSchedules, opts ReplayOptions) (*ReplayReport, error) {
	return replay.Run(ds, opts)
}

// NewReplaySimClock returns a simulated clock whose Now costs poll
// cycles of simulated time (1 cycle = 1ns), for exact-expectation
// replay tests.
func NewReplaySimClock(poll Cycle) *ReplaySimClock { return replay.NewSimClock(poll) }

// ExperimentReproducible reports whether the experiment's cell payloads
// are a pure function of the seed (true for every analytic study). A
// non-reproducible experiment measures the host: it is excluded from
// the "all" selection, never cell-cached, and its shard files carry a
// host fingerprint.
func ExperimentReproducible(e Experiment) bool { return experiment.Reproducible(e) }

// HostFingerprint identifies the measuring machine
// (GOOS/GOARCH/CPU count/Go version) recorded in non-reproducible
// shard files.
func HostFingerprint() string { return experiment.HostFingerprint() }

// Shard/merge workflow: split an experiment's cell grid across processes
// or machines and reassemble the exact single-process result (see the
// package comment's Sharding section).
type (
	// ShardFile is one shard process's versioned cell file.
	ShardFile = shard.File
	// ShardRun is one experiment's sharded cells inside a file.
	ShardRun = shard.Run
	// ShardCell is one evaluated grid cell with its derived seed.
	ShardCell = shard.Cell
	// ShardGrid gives a run's grid dimensions.
	ShardGrid = shard.Grid
	// ShardParams is the run parameterisation recorded in shard files.
	ShardParams = experiment.ShardParams
)

// RunExperimentShard evaluates shard index of shards for the selection
// ("all" or one experiment name) and returns the cell file to persist
// with ShardFile.WriteFile. Any shard may run at any parallelism on any
// host: merged results never depend on the decomposition.
func RunExperimentShard(selection string, p ShardParams, parallelism, shards, index int) (*ShardFile, error) {
	return experiment.RunShard(selection, p, parallelism, shards, index)
}

// ReadShardFile reads and validates one shard cell file.
func ReadShardFile(path string) (*ShardFile, error) { return shard.ReadFile(path) }

// MergeShardFiles validates that the files form one complete, disjoint
// cover of a single run's grids and returns the single-shard equivalent
// (cells complete, in grid order) ready for ExperimentFromCells.
func MergeShardFiles(files []*ShardFile) (*ShardFile, error) { return shard.Merge(files) }

// ShardBatchInfo is the header marking a file as a cell batch: an
// explicit per-run cell set (the unit of cost-balanced dispatch) instead
// of a round-robin share. See docs/SHARD_FORMAT.md.
type ShardBatchInfo = shard.BatchInfo

// MergeShardBatches validates that the batch files cover every cell of a
// single run's grids and returns the single-shard equivalent plus the
// number of duplicate cells discarded. Unlike MergeShardFiles, inputs
// may overlap — work stealing legitimately computes a cell twice — and
// later copies are discarded first-completion-wins by cell key, which
// determinism makes safe: both copies are byte-identical.
func MergeShardBatches(files []*ShardFile) (*ShardFile, int, error) {
	return shard.MergeBatches(files)
}

// Streaming/partial merge: render provisional results from whatever
// shards exist, with exact coverage accounting, long before — and
// byte-identically converging to — the complete cover. See the package
// comment's Streaming section and docs/SHARD_FORMAT.md.
type (
	// ShardPartialCover is the merge of an incomplete shard subset: the
	// provisional single-shard-equivalent file plus per-run coverage and
	// the missing shard indices.
	ShardPartialCover = shard.PartialCover
	// ShardRunCoverage is one run's coverage inside a partial cover.
	ShardRunCoverage = shard.RunCoverage
	// ShardPartialInfo is the header a partial cover file carries.
	ShardPartialInfo = shard.PartialInfo
	// ExperimentCoverage reports how much of a grid a partial cell set
	// covers, per point.
	ExperimentCoverage = experiment.Coverage
)

// MergeShardFilesPartial merges any mutually-consistent subset of a
// run's shard files — including partial cover files from an earlier
// partial merge — without requiring completeness. The cover reports
// exactly which shards and cells are missing; its File feeds
// ExperimentFromCellsPartial for provisional figures, and re-merging it
// with the remaining shards converges byte-identically to
// MergeShardFiles of the full set. The CLI equivalent is
// "ioschedbench merge -partial".
func MergeShardFilesPartial(files []*ShardFile) (*ShardPartialCover, error) {
	return shard.MergePartial(files)
}

// Dispatched execution: a fault-tolerant driver that fans the shard
// indices of one run out to a pool of workers, retries lost, failed,
// corrupt and timed-out shards by index, journals progress so an
// interrupted dispatch resumes, and auto-merges the complete cover.
// DispatchOptions.Balance selects the decomposition (round-robin shards,
// or cost-packed cell batches refined by observed wall-clock on resume)
// and DispatchOptions.Steal lets idle workers race a duplicate copy of
// the heaviest straggler — first completion wins, duplicates are
// discarded by cell key, and every combination merges byte-identical to
// the unsharded run. See the package comment's Dispatch section,
// internal/dispatch and docs/DISPATCH.md.
type (
	// DispatchSpec names the dispatched run: selection, params, shards.
	DispatchSpec = dispatch.Spec
	// DispatchOptions tunes attempts, timeout, working directory and
	// logging.
	DispatchOptions = dispatch.Options
	// DispatchWorker evaluates one shard per call; implement it to add a
	// custom backend.
	DispatchWorker = dispatch.Worker
	// DispatchTask is one unit handed to a worker.
	DispatchTask = dispatch.Task
	// DispatchResult reports the merged file and the attempt/retry log.
	DispatchResult = dispatch.Result
	// DispatchAttempt records one worker attempt at one shard.
	DispatchAttempt = dispatch.Attempt
	// LocalProcWorker runs shards on a warm local "ioschedbench tasks"
	// child, one task line per shard (protocol: docs/DISPATCH.md).
	LocalProcWorker = dispatch.LocalProcWorker
	// CmdWorker runs shards through a user-supplied command template
	// (e.g. "ssh host ioschedbench {args} -out /dev/stdout").
	CmdWorker = dispatch.CmdWorker
	// DispatchProgressEvent is one event of the typed progress stream a
	// dispatch emits through DispatchOptions.Progress (schema version
	// dispatch.ProgressVersion; spec: docs/DISPATCH.md).
	DispatchProgressEvent = dispatch.ProgressEvent
	// DispatchTracker folds the progress stream into queryable snapshots
	// (per-shard state, counts, ETA) for live status displays.
	DispatchTracker = dispatch.Tracker
	// DispatchJournalState is the decoded state of a dispatch journal —
	// what the "ioschedbench status" subcommand prints.
	DispatchJournalState = dispatch.JournalState
)

// NewDispatchTracker returns an empty progress tracker; pass its Observe
// method through DispatchOptions.Progress.
func NewDispatchTracker() *DispatchTracker { return dispatch.NewTracker() }

// ReadDispatchJournal decodes the journal inside a dispatch directory —
// live, finished or dead — into its per-shard state, missing indices and
// failure log. It never writes, so it is safe against a running dispatch.
func ReadDispatchJournal(dir string) (*DispatchJournalState, error) {
	return dispatch.ReadJournalDir(dir)
}

// DispatchShards runs the spec's shards across the worker pool with
// per-shard retry and returns the merged single-shard equivalent —
// byte-identical (once encoded) to RunExperimentShard with shards 1. The
// CLI equivalent is "ioschedbench dispatch".
func DispatchShards(ctx context.Context, spec DispatchSpec, workers []DispatchWorker, opts DispatchOptions) (*DispatchResult, error) {
	return dispatch.Run(ctx, spec, workers, opts)
}

// Table1 regenerates Table I (hardware cost model vs paper).
func Table1() []hwcost.Row { return hwcost.Table1() }

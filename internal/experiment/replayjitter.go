package experiment

// The jitter experiment: wall-clock replay of computed schedules. Every
// other experiment in the registry evaluates a schedule analytically;
// this one hands the static scheduler's output to internal/replay and
// measures what the host actually delivers — dispatch jitter
// distributions, exact-hit counts and missed deadlines per utilisation
// point.
//
// It is the registry's one non-reproducible experiment: a cell payload
// is a measurement of this machine at this moment, not a function of
// the seed, so Reproducible() returns false and the machinery treats it
// specially — excluded from the "all" selection, never cell-cached, and
// its shard files carry a host fingerprint (shard.File.Host). The grid
// itself (which systems are generated, which schedules replayed) is
// still seed-derived on a private stream, so two hosts measure the same
// workload.
//
// This file sorts after registry.go, so its init registers jitter after
// the built-ins (and before tailq.go's) — see TestRegistryCanonicalOrder.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/textplot"
)

// streamJitter is the experiment's private seed stream (tailq.go holds
// 6).
const streamJitter int64 = 7

// JitterUtils is the experiment's utilisation axis: three points, not
// Figure 5's fifteen, because every cell costs real wall-clock time
// (warmup plus up to the replay cap).
func JitterUtils() []float64 { return []float64{0.3, 0.5, 0.7} }

// Replay-knob defaults recorded by the experiment's ParamDefaulter.
const (
	defaultReplayTick    = time.Microsecond      // real time: the schedule's native scale
	defaultReplayCap     = 25 * time.Millisecond // horizon per device, not per hyper-period
	defaultReplayWarmup  = 64                    // synthetic dispatches before the epoch
	defaultReplaySystems = 6                     // systems per utilisation point
)

// ResolvedReplay returns the replay harness options and the per-point
// system count the params describe (zero fields select the defaults
// above; ReplayNoPin's zero value means "pin").
func (p ShardParams) ResolvedReplay() (replay.Options, int) {
	opts := replay.Options{
		Tick:   time.Duration(p.ReplayTickNs),
		Cap:    time.Duration(p.ReplayCapNs),
		Warmup: p.ReplayWarmup,
		Pin:    !p.ReplayNoPin,
	}
	if opts.Tick == 0 {
		opts.Tick = defaultReplayTick
	}
	if opts.Cap == 0 {
		opts.Cap = defaultReplayCap
	}
	if opts.Warmup == 0 {
		opts.Warmup = defaultReplayWarmup
	}
	systems := p.ReplaySystems
	if systems == 0 {
		systems = defaultReplaySystems
	}
	return opts, systems
}

// jitterOutcome is one replayed system's delivered-timing census; it
// doubles as the jitter shard-cell payload. Durations are nanoseconds.
type jitterOutcome struct {
	// OK marks the system schedulable (there was a schedule to replay);
	// the measurement fields are zero otherwise.
	OK bool `json:"ok"`
	// Dispatched and Skipped partition the schedule's entries: fired
	// versus dropped by the replay cap.
	Dispatched int `json:"dispatched"`
	Skipped    int `json:"skipped"`
	// Exact counts zero-jitter dispatches (the delivered Ψ numerator);
	// Missed counts dispatches past their job's latest feasible start.
	Exact  int `json:"exact"`
	Missed int `json:"missed"`
	// Devices counts the replayed partitions, Pinned how many of their
	// executor threads got CPU affinity.
	Devices int `json:"devices"`
	Pinned  int `json:"pinned"`
	// MeanNs, the percentiles and MaxNs summarise |actual − intended|.
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P95Ns  int64   `json:"p95_ns"`
	P99Ns  int64   `json:"p99_ns"`
	MaxNs  int64   `json:"max_ns"`
	// Hist is the fixed-bound deviation histogram (replay.HistBounds
	// layout), poolable across cells by elementwise addition.
	Hist []int64 `json:"hist"`
}

// JitterPoint pools the delivered-timing census at one utilisation.
type JitterPoint struct {
	U float64
	// Schedulable is the fraction of systems the static scheduler
	// scheduled; the measurements pool over exactly those systems.
	Schedulable stats.Ratio
	Dispatched  int
	Skipped     int
	// Exact and Missed are fractions of the pooled dispatches.
	Exact  float64
	Missed float64
	// MeanNs is the dispatch-weighted mean deviation; P99Ns the worst
	// single cell's p99; MaxNs the worst single deviation.
	MeanNs float64
	P99Ns  int64
	MaxNs  int64
	Hist   []int64
}

// JitterResult is the jitter dataset: one pooled point per utilisation,
// plus the run-wide histogram its Footer renders.
type JitterResult struct {
	Points []JitterPoint
	// Pinned / Devices count executor threads across all cells.
	Pinned  int
	Devices int
}

// Rows renders the result as a text table.
func (r *JitterResult) Rows() ([]string, [][]string) {
	headers := []string{"U", "schedulable", "dispatched", "skipped", "exact", "missed", "mean", "p99", "max"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", p.U),
			fmt.Sprintf("%.3f", p.Schedulable.Value()),
			fmt.Sprintf("%d", p.Dispatched),
			fmt.Sprintf("%d", p.Skipped),
			fmt.Sprintf("%.3f", p.Exact),
			fmt.Sprintf("%.3f", p.Missed),
			fmtNs(int64(p.MeanNs)),
			fmtNs(p.P99Ns),
			fmtNs(p.MaxNs),
		})
	}
	return headers, rows
}

// fmtNs renders a nanosecond figure in its most natural unit.
func fmtNs(ns int64) string { return time.Duration(ns).String() }

// Footer implements Footnoted: the pooled deviation histogram and the
// reproducibility note.
func (r *JitterResult) Footer() string {
	labels := replay.HistLabels()
	pooled := make([]int64, len(labels))
	for _, p := range r.Points {
		for i, n := range p.Hist {
			if i < len(pooled) {
				pooled[i] += n
			}
		}
	}
	var b strings.Builder
	b.WriteString(textplot.Histogram("dispatch deviation histogram (all points)", labels, pooled, 40))
	fmt.Fprintf(&b, "executors pinned: %d/%d\n", r.Pinned, r.Devices)
	b.WriteString("note: jitter is non-reproducible — payloads measure the host, not the seed")
	return b.String()
}

// jitterExperiment is the wall-clock replay study as a registry entry.
type jitterExperiment struct{}

func init() { Register(jitterExperiment{}) }

func (jitterExperiment) Name() string { return ExpJitter }
func (jitterExperiment) Describe() string {
	return "Jitter: wall-clock replay of static schedules, delivered dispatch timing (non-reproducible)"
}
func (jitterExperiment) CellKey() string { return ExpJitter }
func (jitterExperiment) CSVName() string { return "jitter.csv" }

// Reproducible implements NonReproducible: the payloads are host
// measurements.
func (jitterExperiment) Reproducible() bool { return false }

var jitterCodec = Codec{Version: 1, New: func() any { return new(jitterOutcome) }, Payload: jitterPayloadCodec()}

func (jitterExperiment) Codec() Codec { return jitterCodec }
func (jitterExperiment) Grid(rc RunContext) (shard.Grid, error) {
	_, systems := rc.Params.ResolvedReplay()
	if systems < 1 {
		return shard.Grid{}, fmt.Errorf("jitter: replay systems %d < 1", systems)
	}
	return shard.Grid{Points: len(JitterUtils()), Systems: systems}, nil
}
func (jitterExperiment) CellSeed(rc RunContext, point, system int) int64 {
	return exec.DeriveSeed(rc.Config.Seed, streamJitter, int64(point), int64(system), subGen)
}
func (jitterExperiment) Header(rc RunContext) string {
	opts, systems := rc.Params.ResolvedReplay()
	return fmt.Sprintf("Jitter: wall-clock replay of static schedules (systems/point=%d, seed=%d, tick=%v, cap=%v, warmup=%d, pin=%v)\nhost: %s\n\n",
		systems, rc.Config.Seed, opts.Tick, opts.Cap, opts.Warmup, opts.Pin, HostFingerprint())
}

// DefaultParams implements ParamDefaulter: the replay knobs resolve to
// the harness defaults.
func (jitterExperiment) DefaultParams(p ShardParams) ShardParams {
	opts, systems := p.ResolvedReplay()
	p.ReplayTickNs = int64(opts.Tick)
	p.ReplayCapNs = int64(opts.Cap)
	p.ReplayWarmup = opts.Warmup
	p.ReplaySystems = systems
	return p
}

// Cell generates the cell's system from its derived sub-seed, schedules
// it with the static scheduler, and replays the schedule against the
// real clock. The workload is seed-deterministic; the measurement is
// not — which is exactly what Reproducible() == false declares.
func (jitterExperiment) Cell(rc RunContext, point, system int) (any, error) {
	cfg := rc.Config
	u := JitterUtils()[point]
	ts, err := cfg.Gen.System(exec.RNG(cfg.Seed, streamJitter, int64(point), int64(system), subGen), u)
	if err != nil {
		return jitterOutcome{}, fmt.Errorf("jitter u=%.2f system %d: %w", u, system, err)
	}
	ds, err := scheduleStatic(ts)
	if err != nil {
		if errors.Is(err, sched.ErrInfeasible) {
			return jitterOutcome{}, nil
		}
		return jitterOutcome{}, fmt.Errorf("jitter u=%.2f system %d: unexpected: %w", u, system, err)
	}
	opts, _ := rc.Params.ResolvedReplay()
	rep, err := replay.Run(ds, opts)
	if err != nil {
		return jitterOutcome{}, fmt.Errorf("jitter u=%.2f system %d: %w", u, system, err)
	}
	o := jitterOutcome{
		OK:         true,
		Dispatched: rep.Stats.Dispatched,
		Skipped:    rep.Stats.Skipped,
		Exact:      rep.Stats.Exact,
		Missed:     rep.Stats.Missed,
		Devices:    len(rep.Devices),
		MeanNs:     rep.Stats.MeanNs,
		P50Ns:      rep.Stats.P50Ns,
		P95Ns:      rep.Stats.P95Ns,
		P99Ns:      rep.Stats.P99Ns,
		MaxNs:      rep.Stats.MaxNs,
		Hist:       rep.Stats.Hist,
	}
	for _, d := range rep.Devices {
		if d.Pinned {
			o.Pinned++
		}
	}
	return o, nil
}

// Aggregate pools the per-system censuses per utilisation point in grid
// order. The usual fixed-order discipline applies even though this
// experiment is exempt from byte-identity: a partial render and a full
// render of the same cells still agree.
func (jitterExperiment) Aggregate(rc RunContext, at func(o, i int) any, has func(o, i int) bool) (Result, error) {
	_, systems := rc.Params.ResolvedReplay()
	res := &JitterResult{}
	for ui, u := range JitterUtils() {
		p := JitterPoint{U: u, Hist: make([]int64, len(replay.HistBounds())+1)}
		var exact, missed int
		var meanSum float64
		for s := 0; s < systems; s++ {
			if has != nil && !has(ui, s) {
				continue
			}
			o := *at(ui, s).(*jitterOutcome)
			p.Schedulable.Trials++
			if !o.OK {
				continue
			}
			p.Schedulable.Successes++
			p.Dispatched += o.Dispatched
			p.Skipped += o.Skipped
			exact += o.Exact
			missed += o.Missed
			meanSum += o.MeanNs * float64(o.Dispatched)
			if o.P99Ns > p.P99Ns {
				p.P99Ns = o.P99Ns
			}
			if o.MaxNs > p.MaxNs {
				p.MaxNs = o.MaxNs
			}
			for i, n := range o.Hist {
				if i < len(p.Hist) {
					p.Hist[i] += n
				}
			}
			res.Devices += o.Devices
			res.Pinned += o.Pinned
		}
		if p.Dispatched > 0 {
			n := float64(p.Dispatched)
			p.Exact = float64(exact) / n
			p.Missed = float64(missed) / n
			p.MeanNs = meanSum / n
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

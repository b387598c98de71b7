package benchtraj

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cellcache"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/sched/depgraph"
	"repro/internal/sched/fps"
	"repro/internal/sched/ga"
	"repro/internal/sched/staticsched"
	"repro/internal/shard"
	"repro/internal/taskmodel"
)

// The tier benchmark bodies. bench_test.go's BenchmarkGASolve etc. and
// the `ioschedbench bench` subcommand both run exactly these functions,
// so the numbers in a BENCH_*.json trajectory are measurements of the
// same code `go test -bench` exercises — not a parallel reimplementation
// that can drift. Every body calls b.ReportAllocs: allocs/op is the
// machine-independent half of the gate and must always be recorded.

// Bench names one tier benchmark body.
type Bench struct {
	// Name is the benchmark name without the "Benchmark" prefix — the
	// key in Trajectory.Benchmarks.
	Name string
	Body func(*testing.B)
}

// Tier returns the gated micro-benchmarks in recording order.
func Tier() []Bench {
	return []Bench{
		{"GASolve", GASolve},
		{"StaticScheduler", StaticScheduler},
		{"DepgraphBuildDecompose", DepgraphBuildDecompose},
		{"FPSOfflineSimulation", FPSOfflineSimulation},
		{"DispatchPack", DispatchPack},
		{"CodecEncodeBinary", CodecEncodeBinary},
		{"CodecDecodeBinary", CodecDecodeBinary},
	}
}

// benchJobs generates the fixed synthetic system the micro-benchmarks
// schedule (paper generator, seed 1, the given utilisation).
func benchJobs(b *testing.B, u float64) []taskmodel.Job {
	b.Helper()
	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(1)), u)
	if err != nil {
		b.Fatal(err)
	}
	return ts.Jobs()
}

// GASolve measures the GA scheduler on a moderate system with a reduced
// population — the gate for the allocation-free fitness inner loop. It
// evaluates serially, as sweep cells do: the worker pool's goroutines
// would make allocs/op depend on the host's CPU count.
func GASolve(b *testing.B) {
	jobs := benchJobs(b, 0.5)
	opts := ga.DefaultOptions()
	opts.Population = 20
	opts.Generations = 10
	opts.Parallelism = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := ga.Solve(jobs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// StaticScheduler measures the dependency-graph static scheduler on a
// crowded system.
func StaticScheduler(b *testing.B) {
	jobs := benchJobs(b, 0.7)
	s := staticsched.New(staticsched.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// DepgraphBuildDecompose measures dependency-graph construction and
// exact/removed decomposition.
func DepgraphBuildDecompose(b *testing.B) {
	jobs := benchJobs(b, 0.7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := depgraph.Build(jobs)
		d := g.Decompose()
		if len(d.Exact)+len(d.Removed) != len(jobs) {
			b.Fatal("bad decomposition")
		}
	}
}

// FPSOfflineSimulation measures the simulated fixed-priority offline
// scheduler.
func FPSOfflineSimulation(b *testing.B) {
	jobs := benchJobs(b, 0.7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (fps.Offline{}).Schedule(jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig5 returns a body regenerating Figure 5 at a reduced scale with the
// given engine parallelism. The engine's determinism invariant makes the
// serial and parallel runs produce identical results, so the ns/op ratio
// of Fig5(1) to Fig5(NumCPU) is a pure wall-clock speedup — the
// trajectory's parallel_speedup field.
func Fig5(parallelism int) func(*testing.B) {
	return func(b *testing.B) {
		rc := experiment.ShardParams{Systems: 5, Seed: 1, GAPopulation: 20, GAGenerations: 15}.Context(parallelism)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := experiment.Run(experiment.ExpFig5, rc); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// DispatchPack measures cost-packed decomposition planning over the full
// selection's predicted cost surface — the per-dispatch overhead balanced
// dispatch adds before any cell runs, which must stay negligible next to
// one GA solve.
func DispatchPack(b *testing.B) {
	p := experiment.ShardParams{Systems: 4, Seed: 1, GAPopulation: 10, GAGenerations: 6}
	plan, err := experiment.PlanSelection(experiment.ExpAll, p)
	if err != nil {
		b.Fatal(err)
	}
	d := shard.CostPacked{Costs: plan.Costs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Split(plan.Grids, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// makespanGrid is the skewed synthetic cost surface behind the dispatch
// makespan measurement: one run, 16 utilisation points × 4 systems,
// where system 0 costs 10× the others (a GA column next to cheap
// heuristic baselines) on top of a mild utilisation ramp. The system
// axis is exactly where round-robin's (point·systems + system) mod
// shards stride degenerates: with the shard count dividing the system
// count, one shard inherits the entire expensive column.
func makespanGrid() (shard.Grid, []float64) {
	g := shard.Grid{Points: 16, Systems: 4}
	costs := make([]float64, g.Cells())
	for o := 0; o < g.Points; o++ {
		ramp := 1 + float64(o)/float64(g.Points-1)
		for i := 0; i < g.Systems; i++ {
			c := ramp
			if i == 0 {
				c *= 10
			}
			costs[o*g.Systems+i] = c
		}
	}
	return g, costs
}

// MeasureDispatchMakespan returns the simulated dispatch makespan ratio
// of round-robin over cost-packed decomposition on the skewed synthetic
// grid split 4 ways: max-part-cost(roundrobin) / max-part-cost(cost).
// Pure arithmetic over the decomposition code — identical on every
// machine — so the trajectory gate holds it strictly. A ratio above 1
// means cost packing finishes the sweep earlier than fixed shares under
// skewed per-cell costs.
func MeasureDispatchMakespan() (float64, error) {
	g, costs := makespanGrid()
	const parts = 4
	makespan := func(d shard.Decomposition) (float64, error) {
		assign, err := d.Split([]shard.Grid{g}, parts)
		if err != nil {
			return 0, err
		}
		sums := make([]float64, parts)
		for gi, part := range assign[0] {
			sums[part] += costs[gi]
		}
		max := 0.0
		for _, s := range sums {
			if s > max {
				max = s
			}
		}
		return max, nil
	}
	rr, err := makespan(shard.RoundRobin{})
	if err != nil {
		return 0, err
	}
	cp, err := makespan(shard.CostPacked{Costs: [][]float64{costs}})
	if err != nil {
		return 0, err
	}
	if cp <= 0 {
		return 0, fmt.Errorf("benchtraj: cost-packed makespan is zero")
	}
	return rr / cp, nil
}

// MeasureReplayJitter runs the jitter experiment at a reduced scale —
// one system per utilisation point, a short horizon, executors pinned
// where the platform allows — and pools its points into one delivered-
// timing baseline. Unlike every other measurement here it is
// non-reproducible by design: the number is this machine's, which is
// why the trajectory stores it next to the host fingerprint and the
// gate never compares it.
func MeasureReplayJitter() (*ReplayJitterMeasurement, error) {
	p := experiment.ShardParams{
		Seed:          1,
		ReplaySystems: 1,
		ReplayCapNs:   int64(5 * time.Millisecond),
		ReplayWarmup:  16,
	}
	res, err := experiment.Run(experiment.ExpJitter, p.Context(1))
	if err != nil {
		return nil, err
	}
	jr, ok := res.(*experiment.JitterResult)
	if !ok {
		return nil, fmt.Errorf("benchtraj: jitter returned %T", res)
	}
	m := &ReplayJitterMeasurement{}
	var meanSum float64
	var exact, missed float64
	for _, pt := range jr.Points {
		m.Dispatched += pt.Dispatched
		n := float64(pt.Dispatched)
		exact += pt.Exact * n
		missed += pt.Missed * n
		meanSum += pt.MeanNs * n
		if pt.P99Ns > m.P99Ns {
			m.P99Ns = pt.P99Ns
		}
		if pt.MaxNs > m.MaxNs {
			m.MaxNs = pt.MaxNs
		}
	}
	if m.Dispatched > 0 {
		n := float64(m.Dispatched)
		m.Exact = exact / n
		m.Missed = missed / n
		m.MeanNs = meanSum / n
	}
	return m, nil
}

// MeasureCacheHitRate runs a small fig5 shard cold into a cell cache
// rooted at dir, reopens the store (fresh counters), runs the identical
// shard warm, and returns the warm run's hit rate — 1.0 when every cell
// was served from the cache, which is what the trajectory records and
// the gate holds.
func MeasureCacheHitRate(dir string) (float64, error) {
	p := experiment.ShardParams{Systems: 2, Seed: 1, GAPopulation: 8, GAGenerations: 5}
	cold, err := cellcache.Open(dir)
	if err != nil {
		return 0, err
	}
	if _, err := experiment.RunShardCached("fig5", p, 1, 1, 0, cold); err != nil {
		return 0, err
	}
	warm, err := cellcache.Open(dir)
	if err != nil {
		return 0, err
	}
	if _, err := experiment.RunShardCached("fig5", p, 1, 1, 0, warm); err != nil {
		return 0, err
	}
	return warm.Stats().HitRate(), nil
}

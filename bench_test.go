package iosched

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/benchtraj"
	"repro/internal/controller"
	"repro/internal/device"
	"repro/internal/experiment"
	"repro/internal/gen"
	"repro/internal/hwcost"
	"repro/internal/noc"
	"repro/internal/sched"
	"repro/internal/sched/fps"
	"repro/internal/sched/ga"
	"repro/internal/sched/gpiocp"
	"repro/internal/sched/staticsched"
	"repro/internal/sim"
	"repro/internal/taskmodel"
	"repro/internal/timing"
)

// benchParams is a reduced experiment configuration so a full -bench=. run
// finishes in minutes; the CLI regenerates the figures at any scale.
func benchParams() experiment.ShardParams {
	return experiment.ShardParams{Systems: 5, Seed: 1, GAPopulation: 20, GAGenerations: 15}
}

// BenchmarkFig5Schedulability regenerates Figure 5 (schedulable fraction
// of FPS-offline / FPS-online / GPIOCP / static / GA across utilisations).
func BenchmarkFig5Schedulability(b *testing.B) {
	rc := benchParams().Context(0)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(experiment.ExpFig5, rc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Parallel regenerates Figure 5 serially and on one worker
// per CPU through the shared benchtraj bodies. The two sub-benchmarks
// produce identical results by the engine's determinism invariant, so
// the ns/op ratio is a pure wall-clock speedup — the same measurement
// the `ioschedbench bench` subcommand records as the trajectory's
// parallel_speedup field (see internal/benchtraj).
func BenchmarkFig5Parallel(b *testing.B) {
	for _, bc := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.NumCPU()), runtime.NumCPU()},
	} {
		b.Run(bc.name, benchtraj.Fig5(bc.parallelism))
	}
}

// BenchmarkGASolveParallel measures the GA's chunked fitness evaluation at
// 1 worker vs one per CPU on a single crowded partition.
func BenchmarkGASolveParallel(b *testing.B) {
	jobs := benchJobs(b, 0.7)
	for _, par := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("parallelism-%d", par), func(b *testing.B) {
			opts := ga.DefaultOptions()
			opts.Parallelism = par
			for i := 0; i < b.N; i++ {
				opts.Seed = int64(i)
				if _, err := ga.Solve(jobs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Psi and BenchmarkFig7Upsilon regenerate Figures 6 and 7
// (each run computes the shared cell grid and aggregates one metric).
func BenchmarkFig6Psi(b *testing.B) { benchFigQ(b, experiment.ExpFig6) }

func BenchmarkFig7Upsilon(b *testing.B) { benchFigQ(b, experiment.ExpFig7) }

func benchFigQ(b *testing.B, name string) {
	rc := benchParams().Context(0)
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(name, rc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.(*experiment.FigQResult).Points) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkTable1ResourceModel regenerates Table I from the structural
// hardware-cost model.
func BenchmarkTable1ResourceModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := hwcost.Table1()
		if len(rows) != 7 {
			b.Fatal("incomplete table")
		}
	}
}

// BenchmarkMotivationNoC regenerates the Section I experiment (remote
// write jitter over the mesh vs the pre-loaded controller).
func BenchmarkMotivationNoC(b *testing.B) {
	rc := experiment.ShardParams{Seed: 1, MotivationWrites: 50}.Context(0)
	for i := 0; i < b.N; i++ {
		if _, err := experiment.Run(experiment.ExpMotivation, rc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the core algorithms ---
//
// The gated tier benchmarks (GASolve, StaticScheduler,
// DepgraphBuildDecompose, FPSOfflineSimulation) delegate to
// internal/benchtraj so `go test -bench` and the `ioschedbench bench`
// trajectory subcommand measure exactly the same bodies.

func benchJobs(b *testing.B, u float64) []taskmodel.Job {
	b.Helper()
	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(1)), u)
	if err != nil {
		b.Fatal(err)
	}
	return ts.Jobs()
}

func BenchmarkDepgraphBuildDecompose(b *testing.B) { benchtraj.DepgraphBuildDecompose(b) }

func BenchmarkStaticScheduler(b *testing.B) { benchtraj.StaticScheduler(b) }

func BenchmarkGASolve(b *testing.B) { benchtraj.GASolve(b) }

func BenchmarkFPSOfflineSimulation(b *testing.B) { benchtraj.FPSOfflineSimulation(b) }

func BenchmarkDispatchPack(b *testing.B) { benchtraj.DispatchPack(b) }

func BenchmarkCodecEncodeBinary(b *testing.B) { benchtraj.CodecEncodeBinary(b) }

func BenchmarkCodecDecodeBinary(b *testing.B) { benchtraj.CodecDecodeBinary(b) }

func BenchmarkCodecEncodeJSON(b *testing.B) { benchtraj.CodecEncodeJSON(b) }

func BenchmarkCodecDecodeJSON(b *testing.B) { benchtraj.CodecDecodeJSON(b) }

func BenchmarkFPSOnlineAnalysis(b *testing.B) {
	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(1)), 0.7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fps.Analyze(ts.Tasks)
	}
}

func BenchmarkGPIOCPBaseline(b *testing.B) {
	jobs := benchJobs(b, 0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Feasibility varies by system; only hard errors abort.
		_, err := (gpiocp.Scheduler{}).Schedule(jobs)
		if err != nil && !isInfeasible(err) {
			b.Fatal(err)
		}
	}
}

func isInfeasible(err error) bool {
	return errors.Is(err, sched.ErrInfeasible)
}

// BenchmarkControllerHyperperiod runs the proposed controller through one
// hyper-period of a scheduled paper-style system.
func BenchmarkControllerHyperperiod(b *testing.B) {
	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(2)), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	schedules, err := sched.ScheduleAll(ts, staticsched.New(staticsched.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	clock := timing.Clock10MHz
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var k sim.Kernel
		ctrl := controller.New()
		bank, _ := device.NewGPIOBank("g", 16)
		if _, err := ctrl.AddProcessor(&k, 0, controller.GPIOExecutor{Bank: bank}, controller.ExecuteAlways); err != nil {
			b.Fatal(err)
		}
		progs := map[int]controller.Program{}
		for t := range ts.Tasks {
			progs[ts.Tasks[t].ID] = controller.Program{{Op: controller.OpTogglePin, Pin: device.Pin(t % 16)}}
		}
		if err := ctrl.Deploy(progs, schedules, clock, ts.Hyperperiod(), 1); err != nil {
			b.Fatal(err)
		}
		k.Run(0)
	}
}

// BenchmarkNoCMeshSaturation pushes packets through the mesh under load.
func BenchmarkNoCMeshSaturation(b *testing.B) {
	cfg := noc.DefaultConfig()
	for i := 0; i < b.N; i++ {
		var k sim.Kernel
		m, err := noc.New(&k, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range m.Coords() {
			m.Attach(c, func(*noc.Packet) {})
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for p := 0; p < 500; p++ {
			pkt := &noc.Packet{
				Src:      noc.Coord{X: rng.Intn(cfg.Width), Y: rng.Intn(cfg.Height)},
				Dst:      noc.Coord{X: rng.Intn(cfg.Width), Y: rng.Intn(cfg.Height)},
				Priority: rng.Intn(4),
			}
			at := timing.Cycle(rng.Intn(1000))
			k.At(at, func() { m.Inject(pkt) })
		}
		k.Run(0)
		if m.Stats().Delivered != 500 {
			b.Fatal("packets lost")
		}
	}
}

// BenchmarkSystemGeneration measures the synthetic system generator.
func BenchmarkSystemGeneration(b *testing.B) {
	cfg := gen.PaperConfig()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.System(rng, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiDeviceScaling measures the partitioned-controller scaling
// study (schedulability and accuracy vs device count).
func BenchmarkMultiDeviceScaling(b *testing.B) {
	p := benchParams()
	p.MultiDeviceU, p.MultiDeviceCounts = 0.8, []int{1, 2, 4}
	rc := p.Context(0)
	for i := 0; i < b.N; i++ {
		points, err := experiment.Run(experiment.ExpMultiDevice, rc)
		if err != nil {
			b.Fatal(err)
		}
		if len(points.(experiment.MultiDeviceResult)) != 3 {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkEndToEndAnalysis measures the Section III-C I/O-aware
// end-to-end bound computation.
func BenchmarkEndToEndAnalysis(b *testing.B) {
	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(5)), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	schedules, err := sched.ScheduleAll(ts, staticsched.New(staticsched.Options{}))
	if err != nil {
		b.Fatal(err)
	}
	cpu, ctl := noc.Coord{X: 0, Y: 0}, noc.Coord{X: 3, Y: 3}
	flows := []analysis.Flow{
		{Name: "req", Priority: 2, Period: 10 * timing.Millisecond,
			BasicLatency: 50 * timing.Microsecond, Route: analysis.XYRoute(cpu, ctl)},
		{Name: "resp", Priority: 2, Period: 10 * timing.Millisecond,
			BasicLatency: 50 * timing.Microsecond, Route: analysis.XYRoute(ctl, cpu)},
		{Name: "video", Priority: 3, Period: 2 * timing.Millisecond,
			BasicLatency: 300 * timing.Microsecond,
			Route:        analysis.XYRoute(noc.Coord{X: 0, Y: 2}, noc.Coord{X: 3, Y: 2})},
	}
	tx := analysis.Transaction{
		Name: "read", Request: 0, Response: 1, Task: ts.Tasks[0].ID,
		Device: 0, Deadline: 500 * timing.Millisecond,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(tx, flows, schedules); err != nil {
			b.Fatal(err)
		}
	}
}

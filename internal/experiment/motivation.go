package experiment

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/noc"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/timing"
	"repro/internal/trace"
)

// MotivationConfig parameterises the Section I latency experiment: a CPU
// issues periodic GPIO writes across a mesh under cross-traffic, versus
// the same waveform generated by the pre-loaded controller next to the
// device.
type MotivationConfig struct {
	Mesh noc.Config
	// Writes is the number of periodic I/O operations measured.
	Writes int
	// PeriodCycles separates consecutive ideal actuation instants.
	PeriodCycles timing.Cycle
	// CrossFlows is the number of interfering packet flows.
	CrossFlows int
	// CrossPeriod is the injection period of each interfering flow.
	CrossPeriod timing.Cycle
	Seed        int64
	// Parallelism bounds the worker goroutines; the two simulated designs
	// (remote NoC writes, pre-loaded controller) are independent and run
	// concurrently when it exceeds 1. <= 0 selects one worker per CPU.
	// Results are identical at every level.
	Parallelism int
}

// DefaultMotivation mirrors a moderately loaded 4×4 system.
func DefaultMotivation() MotivationConfig {
	cfg := noc.DefaultConfig()
	cfg.LinkDelay = 8 // multi-flit packets: links serialise competing flows
	return MotivationConfig{
		Mesh:         cfg,
		Writes:       200,
		PeriodCycles: 500,
		CrossFlows:   12,
		CrossPeriod:  73,
		Seed:         1,
	}
}

// MotivationResult compares the two designs.
type MotivationResult struct {
	// Remote is the accuracy report of NoC-instigated writes: expected
	// actuation instants vs actual packet arrival at the device.
	Remote *trace.Report
	// Controller is the accuracy report of the pre-loaded controller
	// executing the same waveform from its scheduling table.
	Controller *trace.Report
	// BaseLatency is the uncontended CPU→controller latency that remote
	// instigation pays even without contention.
	BaseLatency timing.Cycle
}

// motivationDesigns is the inner grid dimension of the experiment: cell 0
// simulates the remote NoC writes, cell 1 the pre-loaded controller.
const motivationDesigns = 2

// motivationCheck rejects configurations the runner cannot measure.
func motivationCheck(cfg MotivationConfig) error {
	if cfg.Writes <= 0 {
		return fmt.Errorf("experiment: motivation needs at least one write")
	}
	return nil
}

// motivationExpected returns the ideal actuation instants both designs
// target.
func motivationExpected(cfg MotivationConfig) []timing.Cycle {
	expected := make([]timing.Cycle, cfg.Writes)
	for i := 0; i < cfg.Writes; i++ {
		expected[i] = timing.Cycle(i+1) * cfg.PeriodCycles
	}
	return expected
}

// motivationOutcome is one design's simulated accuracy report; it doubles
// as the motivation shard-cell payload.
type motivationOutcome struct {
	Report *trace.Report `json:"report"`
	// BaseLatency is only meaningful for the remote design (cell 0).
	BaseLatency timing.Cycle `json:"base_latency,omitempty"`
}

// motivationCell simulates one design. The two designs share nothing, so
// the cells can run in separate goroutines — or separate processes.
func motivationCell(cfg MotivationConfig, design int) (motivationOutcome, error) {
	expected := motivationExpected(cfg)
	switch design {
	case 0:
		rep, base, err := motivationRemote(cfg, expected)
		return motivationOutcome{Report: rep, BaseLatency: base}, err
	case 1:
		rep, err := motivationController(cfg, expected)
		return motivationOutcome{Report: rep}, err
	default:
		return motivationOutcome{}, fmt.Errorf("experiment: motivation design %d out of range", design)
	}
}

// motivationAggregate assembles the two design outcomes into the result.
func motivationAggregate(at func(o, i int) motivationOutcome) *MotivationResult {
	remote, ctrl := at(0, 0), at(0, 1)
	return &MotivationResult{
		Remote:      remote.Report,
		Controller:  ctrl.Report,
		BaseLatency: remote.BaseLatency,
	}
}

// motivationExperiment is the Section I latency experiment as a registry
// entry. It reproduces the paper's introduction argument that on-chip
// communication latency and contention make remote I/O instigation
// inaccurate, while a dedicated pre-loaded controller achieves exact
// instants. The two simulated designs share nothing, so they are the two
// cells of a 1 × 2 grid.
type motivationExperiment struct{}

func (motivationExperiment) Name() string { return ExpMotivation }
func (motivationExperiment) Describe() string {
	return "Motivation: remote NoC write jitter vs the pre-loaded controller"
}
func (motivationExperiment) CellKey() string { return ExpMotivation }
func (motivationExperiment) CSVName() string { return "" }

var motivationCodec = Codec{Version: 1, New: func() any { return new(motivationOutcome) }, Payload: motivationPayloadCodec()}

func (motivationExperiment) Codec() Codec { return motivationCodec }
func (motivationExperiment) Grid(rc RunContext) (shard.Grid, error) {
	g := shard.Grid{Points: 1, Systems: motivationDesigns}
	return g, motivationCheck(rc.Motivation)
}
func (motivationExperiment) Cell(rc RunContext, _, system int) (any, error) {
	return motivationCell(rc.Motivation, system)
}
func (motivationExperiment) CellSeed(rc RunContext, _, system int) int64 {
	if system == 0 {
		// Only the remote design draws randomness (cross-traffic).
		return exec.DeriveSeed(rc.Motivation.Seed, streamMotivation)
	}
	return 0
}
func (motivationExperiment) Header(rc RunContext) string {
	mcfg := rc.Motivation
	return fmt.Sprintf("Motivation (Section I): timing accuracy of remote I/O writes over a %dx%d NoC\n",
		mcfg.Mesh.Width, mcfg.Mesh.Height) +
		fmt.Sprintf("(%d periodic writes, %d cross-traffic flows, seed=%d)\n\n",
			mcfg.Writes, mcfg.CrossFlows, mcfg.Seed)
}
func (motivationExperiment) Aggregate(_ RunContext, at func(o, i int) any, has func(o, i int) bool) (Result, error) {
	if has != nil && (!has(0, 0) || !has(0, 1)) {
		// The experiment is a two-design comparison: no provisional result
		// exists until both designs are present.
		return nil, nil
	}
	return motivationAggregate(func(o, i int) motivationOutcome { return *at(o, i).(*motivationOutcome) }), nil
}

// DefaultParams implements ParamDefaulter: the write count defaults to
// DefaultMotivation's.
func (motivationExperiment) DefaultParams(p ShardParams) ShardParams {
	p.MotivationWrites = p.Motivation().Writes
	return p
}

// PartialSkipNote implements PartialSkipper: an incomplete design grid
// has no honest provisional comparison.
func (motivationExperiment) PartialSkipNote(cov Coverage, missingShards string) string {
	return fmt.Sprintf("PARTIAL: %d/%d designs present; missing shards:%s — skipped, the\n", cov.Have, cov.Total, missingShards) +
		"experiment is a two-design comparison and needs both cells.\n\n"
}

// motivationRemote simulates the CPU issuing the writes across the mesh
// under cross-traffic.
func motivationRemote(cfg MotivationConfig, expected []timing.Cycle) (*trace.Report, timing.Cycle, error) {
	rng := exec.RNG(cfg.Seed, streamMotivation)
	var k sim.Kernel
	mesh, err := noc.New(&k, cfg.Mesh)
	if err != nil {
		return nil, 0, err
	}
	src := noc.Coord{X: 0, Y: 0}
	dst := noc.Coord{X: cfg.Mesh.Width - 1, Y: cfg.Mesh.Height - 1}
	base := cfg.Mesh.UncontendedLatency(src, dst)

	// The writes are told apart by their payload tag, not their source:
	// a random cross-traffic flow may also run from src to dst.
	observed := make([]timing.Cycle, 0, cfg.Writes)
	if err := mesh.Attach(dst, func(p *noc.Packet) {
		if _, ok := p.Payload.(ioWrite); ok {
			observed = append(observed, p.Delivered)
		}
	}); err != nil {
		return nil, 0, err
	}
	// The CPU compensates for the uncontended latency by sending each
	// write `base` cycles early — the best a remote design can do without
	// a crystal ball for contention.
	for _, ideal := range expected {
		send := ideal - base
		k.At(send, func() {
			mesh.Inject(&noc.Packet{Src: src, Dst: dst, Priority: 1, Payload: ioWrite{}})
		})
	}
	// Cross-traffic: equal-priority flows crossing the I/O route.
	for f := 0; f < cfg.CrossFlows; f++ {
		fsrc := noc.Coord{X: rng.Intn(cfg.Mesh.Width), Y: rng.Intn(cfg.Mesh.Height)}
		fdst := noc.Coord{X: cfg.Mesh.Width - 1, Y: rng.Intn(cfg.Mesh.Height)}
		period := cfg.CrossPeriod + timing.Cycle(f%5)
		for t := timing.Cycle(1 + f); t < timing.Cycle(cfg.Writes+1)*cfg.PeriodCycles; t += period {
			fsrc, fdst := fsrc, fdst
			k.At(t, func() {
				mesh.Inject(&noc.Packet{Src: fsrc, Dst: fdst, Priority: 1})
			})
		}
	}
	k.Run(0)
	if len(observed) != cfg.Writes {
		return nil, 0, fmt.Errorf("experiment: %d of %d remote writes delivered", len(observed), cfg.Writes)
	}
	remote, err := trace.Measure(nil, expected, observed)
	if err != nil {
		return nil, 0, err
	}
	return remote, base, nil
}

// ioWrite is the payload tag of the remote design's I/O write packets.
type ioWrite struct{}

// motivationController simulates the pre-loaded controller generating the
// same waveform from its scheduling table, next to the device.
func motivationController(cfg MotivationConfig, expected []timing.Cycle) (*trace.Report, error) {
	var k sim.Kernel
	mem, err := controller.NewMemory(controller.DefaultMemoryBytes)
	if err != nil {
		return nil, err
	}
	bank, err := device.NewGPIOBank("gpio", 1)
	if err != nil {
		return nil, err
	}
	proc, err := controller.NewProcessor(&k, mem, controller.GPIOExecutor{Bank: bank}, controller.ExecuteAlways)
	if err != nil {
		return nil, err
	}
	if err := mem.Preload(0, controller.Program{{Op: controller.OpTogglePin, Pin: 0}}); err != nil {
		return nil, err
	}
	entries := make([]controller.TableEntry, cfg.Writes)
	for i := range entries {
		entries[i] = controller.TableEntry{Task: 0, Job: i, Start: expected[i], Budget: 2}
	}
	if err := proc.LoadTable(entries); err != nil {
		return nil, err
	}
	if err := proc.Start(0, 1); err != nil {
		return nil, err
	}
	k.Run(0)
	edges := bank.EdgesFor(0)
	observed := make([]timing.Cycle, len(edges))
	for i, e := range edges {
		observed[i] = e.At
	}
	return trace.Measure(nil, expected, observed)
}

// Footer implements Footnoted: the base-latency note printed after the
// table.
func (r *MotivationResult) Footer() string {
	return fmt.Sprintf("uncontended CPU->controller latency: %d cycles (compensated by the remote design)",
		r.BaseLatency)
}

// Rows renders the comparison table.
func (r *MotivationResult) Rows() ([]string, [][]string) {
	headers := []string{"design", "exact", "mean jitter (cy)", "max jitter (cy)", "p95 (cy)"}
	rows := [][]string{
		{
			"remote write over NoC",
			fmt.Sprintf("%.3f", r.Remote.ExactFraction()),
			fmt.Sprintf("%.2f", r.Remote.MeanDeviation),
			fmt.Sprintf("%d", r.Remote.MaxDeviation),
			fmt.Sprintf("%d", r.Remote.Percentile(95)),
		},
		{
			"pre-loaded controller",
			fmt.Sprintf("%.3f", r.Controller.ExactFraction()),
			fmt.Sprintf("%.2f", r.Controller.MeanDeviation),
			fmt.Sprintf("%d", r.Controller.MaxDeviation),
			fmt.Sprintf("%d", r.Controller.Percentile(95)),
		},
	}
	return headers, rows
}

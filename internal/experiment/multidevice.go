package experiment

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/sched/staticsched"
	"repro/internal/shard"
	"repro/internal/stats"
)

// MultiDevicePoint summarises one device-count configuration.
type MultiDevicePoint struct {
	Devices     int
	Schedulable stats.Ratio
	MeanPsi     float64
	MeanUpsilon float64
}

// MultiDeviceResult is the scaling study's registry result: one row per
// device count.
type MultiDeviceResult []MultiDevicePoint

// multiDeviceExperiment is the partitioned scaling study as a registry
// entry. It studies the fully-partitioned controller's headline scaling
// property: at a fixed total utilisation, spreading the I/O tasks across
// more devices (one controller processor each, Section III's "global I/O
// controller with a fully-partitioned I/O scheduling model") removes
// inter-task contention, so the fraction of exactly timing-accurate jobs
// climbs towards 1. The static scheduler is used; each partition is
// scheduled independently.
type multiDeviceExperiment struct{}

func (multiDeviceExperiment) Name() string { return ExpMultiDevice }
func (multiDeviceExperiment) Describe() string {
	return "Partitioned scaling: static scheduler quality vs device count"
}
func (multiDeviceExperiment) CellKey() string { return ExpMultiDevice }
func (multiDeviceExperiment) CSVName() string { return "" }
func (multiDeviceExperiment) Codec() Codec {
	return Codec{Version: 1, New: func() any { return new(qOutcome) }, Payload: qPayloadCodec()}
}
func (multiDeviceExperiment) Grid(rc RunContext) (shard.Grid, error) {
	_, counts := rc.Params.ResolvedMultiDevice()
	g := shard.Grid{Points: len(counts), Systems: rc.Config.Systems}
	return g, multiDeviceCheck(counts)
}
func (multiDeviceExperiment) Cell(rc RunContext, point, system int) (any, error) {
	u, counts := rc.Params.ResolvedMultiDevice()
	return multiDeviceCell(rc.Config, u, counts, point, system)
}
func (multiDeviceExperiment) CellSeed(rc RunContext, point, system int) int64 {
	return exec.DeriveSeed(rc.Config.Seed, streamMultiDevice, int64(point), int64(system), subGen)
}
func (multiDeviceExperiment) Header(rc RunContext) string {
	return fmt.Sprintf("Partitioned scaling: static scheduler at total U=0.8 over 1..8 devices (systems=%d)\n\n",
		rc.Config.Systems)
}
func (multiDeviceExperiment) Aggregate(rc RunContext, at func(o, i int) any, has func(o, i int) bool) (Result, error) {
	_, counts := rc.Params.ResolvedMultiDevice()
	return MultiDeviceResult(multiDeviceAggregate(rc.Config, counts,
		func(o, i int) qOutcome { return *at(o, i).(*qOutcome) }, has)), nil
}

// DefaultParams implements ParamDefaulter: the axis defaults to U=0.8
// over 1, 2, 4 and 8 devices.
func (multiDeviceExperiment) DefaultParams(p ShardParams) ShardParams {
	p.MultiDeviceU, p.MultiDeviceCounts = p.ResolvedMultiDevice()
	return p
}

// multiDeviceCheck rejects invalid device-count axes.
func multiDeviceCheck(deviceCounts []int) error {
	for _, devs := range deviceCounts {
		if devs < 1 {
			return fmt.Errorf("experiment: device count %d", devs)
		}
	}
	return nil
}

// multiDeviceCell evaluates one (device count, system) cell with the
// static scheduler; the outcome doubles as the shard-cell payload.
func multiDeviceCell(cfg Config, u float64, deviceCounts []int, di, s int) (qOutcome, error) {
	devs := deviceCounts[di]
	gen := cfg.Gen
	gen.Devices = devs
	ts, err := gen.System(exec.RNG(cfg.Seed, streamMultiDevice, int64(di), int64(s), subGen), u)
	if err != nil {
		return qOutcome{}, fmt.Errorf("multidevice %d devices system %d: %w", devs, s, err)
	}
	ds, err := sched.ScheduleAll(ts, staticsched.New(staticsched.Options{}))
	if err != nil {
		return qOutcome{}, nil
	}
	psi, ups := ds.Metrics(quality.Linear{})
	return qOutcome{Psi: psi, Ups: ups, OK: true}, nil
}

// multiDeviceAggregate folds an outcome grid into the study points in
// grid order — shared by the in-process runner and the shard merge path.
// A nil has aggregates the complete grid; a partial cover's predicate
// restricts each device-count row to its present systems.
func multiDeviceAggregate(cfg Config, deviceCounts []int, at func(o, i int) qOutcome, has func(o, i int) bool) []MultiDevicePoint {
	var out []MultiDevicePoint
	for di, devs := range deviceCounts {
		point := MultiDevicePoint{Devices: devs}
		var psis, upss []float64
		for s := 0; s < cfg.Systems; s++ {
			if has != nil && !has(di, s) {
				continue
			}
			o := at(di, s)
			point.Schedulable.Trials++
			if !o.OK {
				continue
			}
			point.Schedulable.Successes++
			psis = append(psis, o.Psi)
			upss = append(upss, o.Ups)
		}
		point.MeanPsi = stats.Mean(psis)
		point.MeanUpsilon = stats.Mean(upss)
		out = append(out, point)
	}
	return out
}

// Rows renders the study as a text table.
func (points MultiDeviceResult) Rows() ([]string, [][]string) {
	headers := []string{"devices", "schedulable", "mean Psi", "mean Upsilon"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Devices),
			fmt.Sprintf("%.3f", p.Schedulable.Value()),
			fmt.Sprintf("%.3f", p.MeanPsi),
			fmt.Sprintf("%.3f", p.MeanUpsilon),
		})
	}
	return headers, rows
}

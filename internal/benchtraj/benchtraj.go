// Package benchtraj is the benchmark-trajectory layer: one shared
// definition of the repo's tier benchmark bodies (run identically by
// `go test -bench` via bench_test.go and by the `ioschedbench bench`
// subcommand via testing.Benchmark), the BENCH_*.json trajectory file
// schema those runs write (ns/op, allocs/op, bytes/op per benchmark,
// plus the Figure 5 serial/parallel speedup and the cell-cache warm
// hit rate), and the comparison rule the CI bench gate applies.
//
// Gating across machines: allocs/op is machine-independent — it is
// always gated against the committed baseline. ns/op is gated only when
// the current host fingerprint (GOOS/GOARCH/CPU count/Go version/
// GOMAXPROCS) matches the baseline's, so a baseline produced on the CI runner class
// gates CI wall-clock without false-failing every developer laptop.
package benchtraj

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"
)

// Version identifies the trajectory file schema.
const Version = 1

// Measurement is one benchmark's recorded cost.
type Measurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Host is the machine fingerprint a trajectory was measured on. ns/op
// comparisons apply only between equal fingerprints.
type Host struct {
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GoVersion string `json:"go_version"`
	// GOMAXPROCS is the scheduler's CPU limit during the run (0 in
	// trajectories recorded before it was). With 1, the parallel speedup
	// is a serial run timed twice, so Compare does not gate it.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
}

// CurrentHost returns this process's fingerprint.
func CurrentHost() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Repeats is how many times the bench subcommand runs each body.
const Repeats = 3

// MeasureTier measures every body repeats times through run and keeps
// each body's fastest run: a shared host only ever adds time, so the
// minimum is the stable ns/op estimate (allocs/op and bytes/op do not
// vary between runs). The runs go round-robin over the bodies, so each
// body's samples spread across the whole measurement rather than one
// stretch of it. A run with zero iterations fails the measurement.
func MeasureTier(bodies []Bench, repeats int, run func(func(*testing.B)) testing.BenchmarkResult) (map[string]Measurement, error) {
	out := make(map[string]Measurement, len(bodies))
	for i := 0; i < repeats; i++ {
		for _, b := range bodies {
			r := run(b.Body)
			if r.N == 0 {
				return nil, fmt.Errorf("benchmark %s failed (zero iterations)", b.Name)
			}
			m := Measurement{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			if best, ok := out[b.Name]; !ok || m.NsPerOp < best.NsPerOp {
				out[b.Name] = m
			}
		}
	}
	return out, nil
}

// Trajectory is one BENCH_*.json snapshot.
type Trajectory struct {
	Version int `json:"version"`
	// Benchmarks maps benchmark name (without the "Benchmark" prefix) to
	// its measurement.
	Benchmarks map[string]Measurement `json:"benchmarks"`
	// ParallelSpeedup is the Figure 5 serial ns/op divided by the
	// one-worker-per-CPU ns/op — the wall-clock speedup the engine's
	// determinism invariant makes a pure measurement (the two runs
	// produce identical results).
	ParallelSpeedup float64 `json:"parallel_speedup"`
	// CacheHitRate is the warm-run hit rate of the cell cache benchmark
	// scenario (1 = every cell served from the cache).
	CacheHitRate float64 `json:"cache_hit_rate"`
	// DispatchMakespanRatio is the simulated round-robin over cost-packed
	// dispatch makespan on a skewed synthetic cost grid
	// (MeasureDispatchMakespan) — deterministic arithmetic, identical on
	// every machine, so it is gated strictly.
	DispatchMakespanRatio float64 `json:"dispatch_makespan_ratio,omitempty"`
	// CodecBytesPerCellV1/V2 are the per-cell sizes of the v1 JSON and
	// v2 binary shard containers over the synthetic paper-scale file
	// (MeasureCodecSizes) — deterministic on every machine. The gate
	// additionally holds v2 at or below half of v1: the binary codec's
	// reason to exist is the size reduction, so losing it is a
	// regression even if both numbers move together.
	CodecBytesPerCellV1 float64 `json:"codec_bytes_per_cell_v1,omitempty"`
	CodecBytesPerCellV2 float64 `json:"codec_bytes_per_cell_v2,omitempty"`
	// ReplayJitter is the delivered-timing baseline of a tiny wall-clock
	// replay (MeasureReplayJitter). It is a measurement of the host the
	// trajectory's fingerprint names — recorded for trend-watching, never
	// gated: Compare ignores it, because wall-clock jitter on a shared CI
	// runner is not a property of the code.
	ReplayJitter *ReplayJitterMeasurement `json:"replay_jitter,omitempty"`
	Host         Host                     `json:"host"`
}

// ReplayJitterMeasurement is one recorded replay baseline: the pooled
// dispatch-deviation distribution of the jitter experiment at a reduced
// scale.
type ReplayJitterMeasurement struct {
	Dispatched int     `json:"dispatched"`
	Exact      float64 `json:"exact"`
	Missed     float64 `json:"missed"`
	MeanNs     float64 `json:"mean_ns"`
	P99Ns      int64   `json:"p99_ns"`
	MaxNs      int64   `json:"max_ns"`
}

// WriteFile writes the trajectory as indented JSON.
func (t *Trajectory) WriteFile(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("benchtraj: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile reads a trajectory file.
func ReadFile(path string) (*Trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchtraj: %w", err)
	}
	var t Trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("benchtraj: %s: %w", path, err)
	}
	if t.Version > Version {
		return nil, fmt.Errorf("benchtraj: %s is schema version %d, this build reads %d", path, t.Version, Version)
	}
	return &t, nil
}

// Compare gates current against baseline with the given relative
// tolerance (0.15 = +15%) and returns one line per regression (empty =
// gate passes). allocs/op is always compared — it is a property of the
// code, not the machine. ns/op and the parallel speedup are compared
// only when the host fingerprints match, and the speedup only when
// neither side ran with GOMAXPROCS 1. A benchmark present in the
// baseline but missing from current is a regression (the gate must not
// pass because a measurement silently disappeared); new benchmarks in
// current are fine — they join the baseline when it is regenerated.
func Compare(baseline, current *Trajectory, tolerance float64) []string {
	var regs []string
	sameHost := baseline.Host == current.Host
	names := make([]string, 0, len(baseline.Benchmarks))
	for name := range baseline.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := baseline.Benchmarks[name]
		c, ok := current.Benchmarks[name]
		if !ok {
			regs = append(regs, fmt.Sprintf("%s: present in baseline but not measured", name))
			continue
		}
		if exceeds(float64(c.AllocsPerOp), float64(b.AllocsPerOp), tolerance) {
			regs = append(regs, fmt.Sprintf("%s: allocs/op %d exceeds baseline %d by more than %.0f%%",
				name, c.AllocsPerOp, b.AllocsPerOp, 100*tolerance))
		}
		if sameHost && exceeds(c.NsPerOp, b.NsPerOp, tolerance) {
			regs = append(regs, fmt.Sprintf("%s: ns/op %.0f exceeds baseline %.0f by more than %.0f%%",
				name, c.NsPerOp, b.NsPerOp, 100*tolerance))
		}
	}
	oneProc := baseline.Host.GOMAXPROCS == 1 || current.Host.GOMAXPROCS == 1
	if sameHost && !oneProc && baseline.ParallelSpeedup > 0 && current.ParallelSpeedup > 0 &&
		current.ParallelSpeedup < baseline.ParallelSpeedup*(1-tolerance) {
		regs = append(regs, fmt.Sprintf("parallel speedup %.2fx fell below baseline %.2fx by more than %.0f%%",
			current.ParallelSpeedup, baseline.ParallelSpeedup, 100*tolerance))
	}
	if baseline.CacheHitRate > 0 && current.CacheHitRate < baseline.CacheHitRate {
		regs = append(regs, fmt.Sprintf("cache hit rate %.2f fell below baseline %.2f",
			current.CacheHitRate, baseline.CacheHitRate))
	}
	// Deterministic on every machine, so any decrease is a code change
	// that made the balanced decomposition pack worse.
	if baseline.DispatchMakespanRatio > 0 && current.DispatchMakespanRatio > 0 &&
		current.DispatchMakespanRatio < baseline.DispatchMakespanRatio {
		regs = append(regs, fmt.Sprintf("dispatch makespan ratio %.3f fell below baseline %.3f",
			current.DispatchMakespanRatio, baseline.DispatchMakespanRatio))
	}
	// Codec sizes are deterministic too. Two rules: the measurement must
	// not silently disappear once the baseline has it, and the binary
	// container must keep at least its 2x size advantage on the
	// paper-scale grid (a hard cap, not a drift tolerance).
	if baseline.CodecBytesPerCellV2 > 0 {
		switch {
		case current.CodecBytesPerCellV2 == 0 || current.CodecBytesPerCellV1 == 0:
			regs = append(regs, "codec bytes-per-cell: present in baseline but not measured")
		case current.CodecBytesPerCellV2 > 0.5*current.CodecBytesPerCellV1:
			regs = append(regs, fmt.Sprintf("codec bytes-per-cell: binary %.1f exceeds half of json %.1f (ratio %.3f, cap 0.5)",
				current.CodecBytesPerCellV2, current.CodecBytesPerCellV1,
				current.CodecBytesPerCellV2/current.CodecBytesPerCellV1))
		}
	}
	return regs
}

// exceeds reports whether got is more than tolerance above want. A zero
// baseline tolerates nothing: the measurement reached zero once, so any
// nonzero value is a regression.
func exceeds(got, want, tolerance float64) bool {
	if want == 0 {
		return got > 0
	}
	return got > want*(1+tolerance)
}

package main

// The bench subcommand: measure the tier benchmarks through the shared
// internal/benchtraj bodies (the exact code `go test -bench` runs),
// write a BENCH_*.json trajectory snapshot, and optionally gate against
// a committed baseline. Each body runs benchtraj.Repeats times,
// round-robin, and keeps the fastest run's ns/op. allocs/op is gated on every machine; ns/op
// only when the host fingerprint matches the baseline's. See docs/CACHE.md
// for the trajectory workflow.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/benchtraj"
)

func runBench(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		out       = fs.String("o", "bench/BENCH_0034.json", "trajectory file to write (empty = don't write)")
		compare   = fs.String("compare", "", "baseline trajectory to gate against; regressions make the command fail")
		tolerance = fs.Float64("tolerance", 0.15, "allowed relative regression before the gate fails")
		benchtime = fs.String("benchtime", "500ms", "per-benchmark measuring time (test.benchtime syntax, e.g. 2s or 10x)")
	)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ioschedbench bench [-o bench/BENCH_0034.json] [-compare baseline.json] [flags]")
		fmt.Fprintln(os.Stderr, "\nMeasures the tier benchmarks (shared with `go test -bench` via")
		fmt.Fprintln(os.Stderr, "internal/benchtraj), the Figure 5 serial/parallel speedup, the cell")
		fmt.Fprintln(os.Stderr, "cache warm hit rate, the dispatch makespan ratio, the shard codec")
		fmt.Fprintln(os.Stderr, "bytes-per-cell sizes and the (ungated) wall-clock replay jitter")
		fmt.Fprintln(os.Stderr, "baseline, and writes them as one trajectory snapshot.")
		fmt.Fprintln(os.Stderr)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *tolerance < 0 {
		return fmt.Errorf("-tolerance %v: must be >= 0", *tolerance)
	}

	// testing.Benchmark sizes b.N from the test.benchtime flag, which
	// exists only after testing.Init registers it. Our own flags live on
	// the subcommand's FlagSet, so flag.CommandLine is free for it here.
	testing.Init()
	if err := flag.CommandLine.Set("test.benchtime", *benchtime); err != nil {
		return fmt.Errorf("-benchtime %q: %w", *benchtime, err)
	}

	traj := &benchtraj.Trajectory{Version: benchtraj.Version, Host: benchtraj.CurrentHost()}
	var err error
	if traj.Benchmarks, err = benchtraj.MeasureTier(benchtraj.Tier(), benchtraj.Repeats, testing.Benchmark); err != nil {
		return err
	}
	for _, bench := range benchtraj.Tier() {
		m := traj.Benchmarks[bench.Name]
		fmt.Fprintf(w, "bench: %-24s %12.0f ns/op %8d B/op %6d allocs/op\n",
			bench.Name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}

	serial := testing.Benchmark(benchtraj.Fig5(1))
	par := testing.Benchmark(benchtraj.Fig5(runtime.NumCPU()))
	if serial.N == 0 || par.N == 0 {
		return fmt.Errorf("benchmark Fig5Parallel failed (zero iterations)")
	}
	serialNs := float64(serial.T.Nanoseconds()) / float64(serial.N)
	parNs := float64(par.T.Nanoseconds()) / float64(par.N)
	if parNs > 0 {
		traj.ParallelSpeedup = serialNs / parNs
	}
	fmt.Fprintf(w, "bench: Fig5 serial/parallel-%d speedup: %.2fx\n", runtime.NumCPU(), traj.ParallelSpeedup)

	cacheDir, err := os.MkdirTemp("", "ioschedbench-bench-cache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	hitRate, err := benchtraj.MeasureCacheHitRate(cacheDir)
	if err != nil {
		return fmt.Errorf("measuring cache hit rate: %w", err)
	}
	traj.CacheHitRate = hitRate
	fmt.Fprintf(w, "bench: cell cache warm hit rate: %.0f%%\n", 100*hitRate)

	ratio, err := benchtraj.MeasureDispatchMakespan()
	if err != nil {
		return fmt.Errorf("measuring dispatch makespan: %w", err)
	}
	traj.DispatchMakespanRatio = ratio
	fmt.Fprintf(w, "bench: dispatch makespan roundrobin/cost ratio: %.3fx\n", ratio)

	sizes, err := benchtraj.MeasureCodecSizes()
	if err != nil {
		return fmt.Errorf("measuring codec sizes: %w", err)
	}
	traj.CodecBytesPerCellV1 = sizes.V1BytesPerCell
	traj.CodecBytesPerCellV2 = sizes.V2BytesPerCell
	fmt.Fprintf(w, "bench: codec bytes/cell json %.1f, binary %.1f (ratio %.3f over %d cells)\n",
		sizes.V1BytesPerCell, sizes.V2BytesPerCell, sizes.Ratio(), sizes.Cells)

	jitter, err := benchtraj.MeasureReplayJitter()
	if err != nil {
		return fmt.Errorf("measuring replay jitter: %w", err)
	}
	traj.ReplayJitter = jitter
	fmt.Fprintf(w, "bench: replay jitter (ungated host baseline): %d dispatches, exact %.2f, missed %.2f, mean %.0fns, p99 %dns, max %dns\n",
		jitter.Dispatched, jitter.Exact, jitter.Missed, jitter.MeanNs, jitter.P99Ns, jitter.MaxNs)

	if *out != "" {
		if dir := filepath.Dir(*out); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
		}
		if err := traj.WriteFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(w, "bench: wrote trajectory to %s\n", *out)
	}

	if *compare != "" {
		baseline, err := benchtraj.ReadFile(*compare)
		if err != nil {
			return err
		}
		if baseline.Host != traj.Host {
			fmt.Fprintf(w, "bench: host differs from baseline %s; gating allocs/op only\n", *compare)
		}
		regs := benchtraj.Compare(baseline, traj, *tolerance)
		for _, r := range regs {
			fmt.Fprintf(w, "bench: REGRESSION: %s\n", r)
		}
		if len(regs) > 0 {
			return fmt.Errorf("%d regression(s) against %s", len(regs), *compare)
		}
		fmt.Fprintf(w, "bench: gate passed against %s (tolerance %.0f%%)\n", *compare, 100**tolerance)
	}
	return nil
}

package benchtraj

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func sample() *Trajectory {
	host := CurrentHost()
	host.GOMAXPROCS = 2 // the speedup gate applies whatever the test host's setting
	return &Trajectory{
		Version: Version,
		Benchmarks: map[string]Measurement{
			"GASolve":         {NsPerOp: 1000, AllocsPerOp: 100, BytesPerOp: 4096},
			"StaticScheduler": {NsPerOp: 500, AllocsPerOp: 0, BytesPerOp: 0},
		},
		ParallelSpeedup:       3.0,
		CacheHitRate:          1.0,
		DispatchMakespanRatio: 1.5,
		Host:                  host,
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	want := sample()
	if err := want.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.Host != want.Host ||
		got.ParallelSpeedup != want.ParallelSpeedup || got.CacheHitRate != want.CacheHitRate {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	if got.Benchmarks["GASolve"] != want.Benchmarks["GASolve"] {
		t.Fatalf("GASolve measurement mismatch: %+v", got.Benchmarks["GASolve"])
	}
}

func TestCompareCleanPass(t *testing.T) {
	if regs := Compare(sample(), sample(), 0.15); len(regs) != 0 {
		t.Fatalf("identical trajectories must pass, got %v", regs)
	}
}

func TestCompareAllocRegressionGatedEverywhere(t *testing.T) {
	cur := sample()
	cur.Host.NumCPU++ // different machine: ns/op gate off, allocs gate on
	m := cur.Benchmarks["GASolve"]
	m.AllocsPerOp = 200
	m.NsPerOp = 1e9 // would regress ns/op, but host differs
	cur.Benchmarks["GASolve"] = m
	regs := Compare(sample(), cur, 0.15)
	if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
		t.Fatalf("want exactly the allocs/op regression, got %v", regs)
	}
}

func TestCompareNsGatedOnSameHostOnly(t *testing.T) {
	cur := sample()
	m := cur.Benchmarks["GASolve"]
	m.NsPerOp = 2000
	cur.Benchmarks["GASolve"] = m
	if regs := Compare(sample(), cur, 0.15); len(regs) != 1 || !strings.Contains(regs[0], "ns/op") {
		t.Fatalf("same host must gate ns/op, got %v", regs)
	}
	cur.Host.GoVersion = "go0.0"
	if regs := Compare(sample(), cur, 0.15); len(regs) != 0 {
		t.Fatalf("different host must not gate ns/op, got %v", regs)
	}
}

func TestCompareZeroBaselineToleratesNothing(t *testing.T) {
	cur := sample()
	m := cur.Benchmarks["StaticScheduler"]
	m.AllocsPerOp = 1
	cur.Benchmarks["StaticScheduler"] = m
	if regs := Compare(sample(), cur, 0.15); len(regs) != 1 {
		t.Fatalf("0 -> 1 allocs/op must regress, got %v", regs)
	}
}

func TestCompareMissingBenchmarkRegresses(t *testing.T) {
	cur := sample()
	delete(cur.Benchmarks, "GASolve")
	regs := Compare(sample(), cur, 0.15)
	if len(regs) != 1 || !strings.Contains(regs[0], "not measured") {
		t.Fatalf("missing benchmark must regress, got %v", regs)
	}
}

func TestCompareSpeedupAndHitRate(t *testing.T) {
	cur := sample()
	cur.ParallelSpeedup = 2.0 // below 3.0 * 0.85
	cur.CacheHitRate = 0.5
	regs := Compare(sample(), cur, 0.15)
	if len(regs) != 2 {
		t.Fatalf("want speedup + hit-rate regressions, got %v", regs)
	}
}

func TestCompareDispatchMakespanStrict(t *testing.T) {
	cur := sample()
	cur.ParallelSpeedup = 0 // not measured: must not regress
	cur.DispatchMakespanRatio = 1.499
	regs := Compare(sample(), cur, 0.15)
	if len(regs) != 1 || !strings.Contains(regs[0], "makespan") {
		t.Fatalf("any makespan-ratio decrease must regress, got %v", regs)
	}
	cur.DispatchMakespanRatio = 1.5
	if regs := Compare(sample(), cur, 0.15); len(regs) != 0 {
		t.Fatalf("equal makespan ratio must pass, got %v", regs)
	}
}

// TestMeasureDispatchMakespan pins the measured quantity itself: on the
// skewed synthetic grid, cost packing must beat fixed round-robin shares,
// and the ratio must be deterministic.
func TestMeasureDispatchMakespan(t *testing.T) {
	r1, err := MeasureDispatchMakespan()
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= 1 {
		t.Fatalf("makespan ratio = %v, want > 1 (cost packing must beat round-robin on a skewed grid)", r1)
	}
	r2, err := MeasureDispatchMakespan()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatalf("makespan ratio not deterministic: %v vs %v", r1, r2)
	}
}

// TestMeasureCacheHitRate pins the trajectory's warm hit rate: a warm
// rerun over the store its cold run filled serves every cell.
func TestMeasureCacheHitRate(t *testing.T) {
	r, err := MeasureCacheHitRate(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("warm hit rate = %v, want 1", r)
	}
}

func TestCompareTolerancePasses(t *testing.T) {
	cur := sample()
	m := cur.Benchmarks["GASolve"]
	m.NsPerOp = 1100    // +10% < 15%
	m.AllocsPerOp = 110 // +10% < 15%
	cur.Benchmarks["GASolve"] = m
	if regs := Compare(sample(), cur, 0.15); len(regs) != 0 {
		t.Fatalf("within-tolerance drift must pass, got %v", regs)
	}
}

func TestMeasureTierKeepsTheFastestRun(t *testing.T) {
	a, b := func(*testing.B) {}, func(*testing.B) {}
	bodies := []Bench{{Name: "A", Body: a}, {Name: "B", Body: b}}
	// Round-robin order: A B A B A B.
	runs := []testing.BenchmarkResult{
		{N: 10, T: 3000 * time.Nanosecond, MemAllocs: 50, MemBytes: 500},
		{N: 1, T: 70 * time.Nanosecond},
		{N: 20, T: 2000 * time.Nanosecond, MemAllocs: 100, MemBytes: 1000},
		{N: 1, T: 90 * time.Nanosecond},
		{N: 10, T: 2500 * time.Nanosecond, MemAllocs: 50, MemBytes: 500},
		{N: 1, T: 80 * time.Nanosecond},
	}
	i := 0
	got, err := MeasureTier(bodies, 3, func(func(*testing.B)) testing.BenchmarkResult { i++; return runs[i-1] })
	if err != nil || i != len(runs) {
		t.Fatalf("err=%v after %d runs", err, i)
	}
	if want := (Measurement{NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: 50}); got["A"] != want {
		t.Fatalf("A = %+v, want %+v", got["A"], want)
	}
	if got["B"].NsPerOp != 70 {
		t.Fatalf("B = %+v, want the 70 ns run", got["B"])
	}
	fail := func(func(*testing.B)) testing.BenchmarkResult { return testing.BenchmarkResult{} }
	if _, err := MeasureTier(bodies, 3, fail); err == nil {
		t.Fatal("a zero-iteration run must fail the measurement")
	}
}

func TestCurrentHostRecordsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := CurrentHost().GOMAXPROCS; got != 1 {
		t.Fatalf("GOMAXPROCS recorded as %d, want 1", got)
	}
}

func TestCompareSkipsSpeedupOnOneProc(t *testing.T) {
	base, cur := sample(), sample()
	cur.ParallelSpeedup = 1.0 // far below 3.0
	if regs := Compare(base, cur, 0.15); len(regs) != 1 {
		t.Fatalf("GOMAXPROCS 2 must gate the speedup, got %v", regs)
	}
	base.Host.GOMAXPROCS, cur.Host.GOMAXPROCS = 1, 1
	if regs := Compare(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("GOMAXPROCS 1 must not gate the speedup, got %v", regs)
	}
}

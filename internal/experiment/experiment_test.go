package experiment

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// fastParams keeps the integration tests quick while preserving enough
// samples for the qualitative assertions.
func fastParams() ShardParams {
	return ShardParams{Systems: 12, Seed: 1, GAPopulation: 16, GAGenerations: 10}
}

func TestFig5Utils(t *testing.T) {
	us := Fig5Utils()
	if len(us) != 15 {
		t.Fatalf("x axis has %d points, want 15 (0.20..0.90 step 0.05): %v", len(us), us)
	}
	if us[0] != 0.20 || us[len(us)-1] != 0.90 {
		t.Errorf("range = [%g, %g]", us[0], us[len(us)-1])
	}
}

// TestRound2 pins half-away-from-zero rounding. Regression: the previous
// int-truncation formula rounded negative inputs toward zero (−0.005 →
// 0.00 instead of −0.01), which would silently corrupt any metric that
// can go negative, such as a Penalised-curve Υ.
func TestRound2(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{0.20, 0.20},
		{0.204, 0.20},
		{0.205, 0.21},
		{0.8999999, 0.90},
		{1.0, 1.0},
		{-0.005, -0.01},
		{-0.204, -0.20},
		{-0.205, -0.21},
		{-1.239, -1.24},
		{-999.999, -1000.0},
	}
	for _, tc := range cases {
		if got := round2(tc.in); got != tc.want {
			t.Errorf("round2(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	out, err := Run(ExpFig5, fastParams().Context(0))
	if err != nil {
		t.Fatal(err)
	}
	res := out.(*Fig5Result)
	if len(res.Points) != 15 {
		t.Fatalf("points = %d", len(res.Points))
	}
	at := func(u float64) Fig5Point {
		for _, p := range res.Points {
			if p.U == u {
				return p
			}
		}
		t.Fatalf("no point at %g", u)
		return Fig5Point{}
	}
	low, high := at(0.30), at(0.90)
	// FPS-offline schedules essentially everything (the paper's boundary
	// condition; the harmonic generation was calibrated for it).
	if v := high.Rates[MethodFPSOffline].Value(); v < 0.9 {
		t.Errorf("FPS-offline at 0.9 = %g, want ≈ 1", v)
	}
	// The proposed methods stay at or above FPS-online...
	for _, m := range []string{MethodStatic, MethodGA} {
		if high.Rates[m].Value() < high.Rates[MethodFPSOnline].Value()-1e-9 {
			t.Errorf("%s at 0.9 = %g below FPS-online %g", m,
				high.Rates[m].Value(), high.Rates[MethodFPSOnline].Value())
		}
	}
	// ...and everything beats GPIOCP, which collapses at high U.
	if v := high.Rates[MethodGPIOCP].Value(); v > 0.25 {
		t.Errorf("GPIOCP at 0.9 = %g, expected collapse", v)
	}
	if lowV, highV := low.Rates[MethodGPIOCP].Value(), high.Rates[MethodGPIOCP].Value(); lowV < highV {
		t.Errorf("GPIOCP should fall with U: %g@0.3 vs %g@0.9", lowV, highV)
	}
	// Rows/Series agree with the data.
	h, rows := res.Rows()
	if len(h) != 6 || len(rows) != 15 {
		t.Errorf("table shape %dx%d", len(h), len(rows))
	}
	x, series := res.Series()
	if len(x) != 15 || len(series) != 5 {
		t.Errorf("series shape %d/%d", len(x), len(series))
	}
}

func TestFig6And7ShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	rc := fastParams().Context(0)
	psiRes, err := Run(ExpFig6, rc)
	if err != nil {
		t.Fatal(err)
	}
	upsRes, err := Run(ExpFig7, rc)
	if err != nil {
		t.Fatal(err)
	}
	psi, ups := psiRes.(*FigQResult), upsRes.(*FigQResult)
	if len(psi.Points) != 5 || len(ups.Points) != 5 {
		t.Fatalf("points = %d/%d", len(psi.Points), len(ups.Points))
	}
	psiMeans := psi.SummaryStats()
	upsMeans := ups.SummaryStats()
	// Figure 6: FPS achieves no exact jobs; static ≥ GA ≥ GPIOCP overall.
	if psiMeans[MethodFPSOffline] > 0.02 {
		t.Errorf("FPS Ψ = %g, paper reports 0", psiMeans[MethodFPSOffline])
	}
	if psiMeans[MethodStatic] < psiMeans[MethodGA]-0.05 {
		t.Errorf("static Ψ %g should be ≥ GA Ψ %g", psiMeans[MethodStatic], psiMeans[MethodGA])
	}
	if psiMeans[MethodGA] < psiMeans[MethodGPIOCP]-0.05 {
		t.Errorf("GA Ψ %g should be ≥ GPIOCP Ψ %g", psiMeans[MethodGA], psiMeans[MethodGPIOCP])
	}
	// Figure 7: GA yields the best quality; FPS the worst.
	if upsMeans[MethodGA] < upsMeans[MethodStatic]-0.02 {
		t.Errorf("GA Υ %g should be ≥ static Υ %g", upsMeans[MethodGA], upsMeans[MethodStatic])
	}
	if upsMeans[MethodFPSOffline] > upsMeans[MethodGPIOCP] {
		t.Errorf("FPS Υ %g should be worst (GPIOCP %g)",
			upsMeans[MethodFPSOffline], upsMeans[MethodGPIOCP])
	}
	// Ψ declines with utilisation for the timing-aware methods.
	first, last := psi.Points[0], psi.Points[len(psi.Points)-1]
	for _, m := range []string{MethodStatic, MethodGA} {
		if first.Mean[m] < last.Mean[m] {
			t.Errorf("%s Ψ should decline: %g@0.3 vs %g@0.7", m, first.Mean[m], last.Mean[m])
		}
	}
}

func TestFig6And7RejectsMultiDevice(t *testing.T) {
	rc := fastParams().Context(0)
	rc.Config.Gen.Devices = 2
	for _, name := range []string{ExpFig6, ExpFig7} {
		if _, err := Run(name, rc); err == nil {
			t.Fatalf("%s: multi-device config accepted", name)
		}
	}
}

func TestTable1RowsRender(t *testing.T) {
	rows := Table1()
	h, r := Table1Rows(rows)
	if len(h) != 6 || len(r) != 7 {
		t.Fatalf("table shape %dx%d", len(h), len(r))
	}
	if !strings.Contains(r[0][1], "/") {
		t.Errorf("cell should be model/paper: %q", r[0][1])
	}
}

func TestMotivationControllerIsExact(t *testing.T) {
	out, err := Run(ExpMotivation, ShardParams{Seed: 1, MotivationWrites: 40}.Context(0))
	if err != nil {
		t.Fatal(err)
	}
	res := out.(*MotivationResult)
	// The pre-loaded controller is always exact; the remote design pays
	// contention-dependent jitter under cross-traffic.
	if res.Controller.ExactFraction() != 1 {
		t.Errorf("controller exact = %g, want 1", res.Controller.ExactFraction())
	}
	if res.Controller.MaxDeviation != 0 {
		t.Errorf("controller max jitter = %d", res.Controller.MaxDeviation)
	}
	if res.Remote.ExactFraction() >= res.Controller.ExactFraction() {
		t.Errorf("remote exact %g should be below controller's 1.0", res.Remote.ExactFraction())
	}
	if res.Remote.MaxDeviation == 0 {
		t.Error("remote design showed no jitter under cross-traffic")
	}
	if res.BaseLatency <= 0 {
		t.Error("base latency missing")
	}
	h, rows := res.Rows()
	if len(h) != 5 || len(rows) != 2 {
		t.Errorf("rows shape %dx%d", len(h), len(rows))
	}
}

func TestMotivationRejectsZeroWrites(t *testing.T) {
	// Params spell zero writes as the default, so set the resolved
	// configuration directly.
	rc := ShardParams{Seed: 1}.Context(0)
	rc.Motivation.Writes = 0
	if _, err := Run(ExpMotivation, rc); err == nil {
		t.Fatal("zero writes accepted")
	}
}

func TestAblationVariantsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := fastParams()
	p.Systems = 6
	p.AblationU = 0.6
	out, err := Run(ExpAblation, p.Context(0))
	if err != nil {
		t.Fatal(err)
	}
	res := out.(AblationStudy)
	if len(res) != len(AblationVariants()) {
		t.Fatalf("variants = %d", len(res))
	}
	byName := map[string]AblationResult{}
	for _, r := range res {
		byName[r.Name] = r
		if r.Schedulable.Trials != 6 {
			t.Errorf("%s trials = %d", r.Name, r.Schedulable.Trials)
		}
	}
	// Demotion never schedules fewer systems than the literal algorithm.
	paper := byName["static (paper: LCC-D)"]
	demo := byName["static + demotion"]
	if demo.Schedulable.Successes < paper.Schedulable.Successes {
		t.Errorf("demotion %d < literal %d schedulable",
			demo.Schedulable.Successes, paper.Schedulable.Successes)
	}
	// Near-ideal placement should not reduce mean Υ.
	near := byName["static near-ideal placement"]
	if near.MeanUpsilon < paper.MeanUpsilon-0.02 {
		t.Errorf("near-ideal Υ %g < paper Υ %g", near.MeanUpsilon, paper.MeanUpsilon)
	}
	h, rows := res.Rows()
	if len(h) != 4 || len(rows) != len(res) {
		t.Errorf("rows shape %dx%d", len(h), len(rows))
	}
}

func TestDefaultAndPaperScaleConfigs(t *testing.T) {
	d, p := Default(), PaperScale()
	if d.Systems != 100 {
		t.Errorf("default systems = %d", d.Systems)
	}
	if p.Systems != 1000 || p.GA.Population != 300 || p.GA.Generations != 500 {
		t.Errorf("paper scale = %+v", p)
	}
}

func TestMultiDeviceScaling(t *testing.T) {
	p := fastParams()
	p.Systems = 15
	p.MultiDeviceU, p.MultiDeviceCounts = 0.8, []int{1, 2, 4}
	out, err := Run(ExpMultiDevice, p.Context(0))
	if err != nil {
		t.Fatal(err)
	}
	points := out.(MultiDeviceResult)
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// More devices → less per-device contention → Ψ climbs.
	if points[2].MeanPsi < points[0].MeanPsi {
		t.Errorf("Ψ should improve with devices: %g@1 vs %g@4",
			points[0].MeanPsi, points[2].MeanPsi)
	}
	if points[2].MeanPsi < 0.75 {
		t.Errorf("4-device Ψ = %g, expected high at low per-device load", points[2].MeanPsi)
	}
	h, rows := points.Rows()
	if len(h) != 4 || len(rows) != 3 {
		t.Errorf("rows shape %dx%d", len(h), len(rows))
	}
	p.MultiDeviceU, p.MultiDeviceCounts = 0.5, []int{0}
	if _, err := Run(ExpMultiDevice, p.Context(0)); err == nil {
		t.Error("zero devices accepted")
	}
}

// TestRunnersParallelismInvariant pins the engine's invariant at the
// experiment layer: every runner produces deep-equal results at
// parallelism 1, 2 and NumCPU for the same seed.
func TestRunnersParallelismInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	p := ShardParams{Systems: 5, Seed: 1, GAPopulation: 12, GAGenerations: 8,
		AblationU: 0.6, MultiDeviceU: 0.8, MultiDeviceCounts: []int{1, 2, 4}}
	names := []string{ExpFig5, ExpFig6, ExpFig7, ExpAblation, ExpMultiDevice}
	ref := map[string]Result{}
	for _, name := range names {
		res, err := Run(name, p.Context(1))
		if err != nil {
			t.Fatal(err)
		}
		ref[name] = res
	}
	for _, par := range []int{2, runtime.NumCPU()} {
		for _, name := range names {
			if got, err := Run(name, p.Context(par)); err != nil || !reflect.DeepEqual(ref[name], got) {
				t.Errorf("%s at parallelism %d differs from serial (err=%v)", name, par, err)
			}
		}
	}
}

// TestMotivationParallelismInvariant covers the remaining runner: the two
// fanned-out design simulations report identically at every parallelism.
func TestMotivationParallelismInvariant(t *testing.T) {
	p := ShardParams{Seed: 1, MotivationWrites: 30}
	ref, err := Run(ExpMotivation, p.Context(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, runtime.NumCPU()} {
		got, err := Run(ExpMotivation, p.Context(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("motivation at parallelism %d differs from serial", par)
		}
	}
}

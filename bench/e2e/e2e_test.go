package main

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at the smoke scale, untraced and traced,
// and checks that each prints every metric it promises, that its output
// matches the smoke reference digests, and that the trace attributes all
// but a tenth of the op wall time to layers.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "ioschedbench")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/ioschedbench").CombinedOutput(); err != nil {
		t.Fatalf("building the worker binary: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			rec, err := run(context.Background(), options{workload: w.name, seed: 1, seconds: 0.1, trace: trace,
				scale: "smoke", bin: bin, workdir: filepath.Join(dir, "work")})
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rec.Correct || rec.Attempted < 1 || rec.Failed != 0 {
				t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d: %s", w.name, trace, rec.Correct, rec.Attempted, rec.Failed, rec.Error)
			}
			specs := endToEnd
			if trace == 1 {
				specs = perLayer
			}
			if len(rec.Metrics) != len(specs) {
				t.Errorf("%s trace=%d: printed %d metrics, want %d", w.name, trace, len(rec.Metrics), len(specs))
			}
			for _, s := range specs {
				if m, ok := rec.Metrics[s.Name]; !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, s.Name, m, s.Unit)
				}
			}
			if u := rec.Metrics["trace.unattributed_frac"].Value; trace == 1 && u > 0.10 {
				t.Errorf("%s: trace.unattributed_frac %v > 0.10", w.name, u)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metric tables and workloads the program implements.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		name      string
		json, src []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.src) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.name, len(c.json), len(c.src))
		}
		for i := range c.src {
			if c.json[i] != c.src[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", c.name, i, c.json[i], c.src[i])
			}
		}
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{2, 4}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

package ga

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// TestSolveAllocationBudget guards the allocation-free generations: a
// benchmark-shaped Solve allocates only per-Solve state (bounds, ranks,
// the two gene slabs, evaluator scratch, one random source) and the
// archive's accepted solutions — ~40 objects, down from ~280 when every
// offspring and every generation's source was a fresh allocation. The
// budget leaves ~25% headroom and fails as soon as per-generation or
// per-evaluation allocations creep back in. Evaluation is serial so the
// count does not depend on the host's CPU count.
func TestSolveAllocationBudget(t *testing.T) {
	cfg := gen.PaperConfig()
	ts, err := cfg.System(rand.New(rand.NewSource(1)), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	jobs := ts.Jobs()
	opts := DefaultOptions()
	opts.Population = 20
	opts.Generations = 10
	opts.Parallelism = 1
	seed := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		opts.Seed = seed
		seed++
		if _, err := Solve(jobs, opts); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 50
	if allocs > budget {
		t.Fatalf("Solve allocated %.0f times per run, budget %d — the hot path has regressed", allocs, budget)
	}
}

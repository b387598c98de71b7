package ga

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/taskmodel"
)

// writeFront hashes one Solve outcome: the error text, or every front
// member's Ψ and Υ bits and each job's start in job order.
func writeFront(h io.Writer, jobs []taskmodel.Job, res *Result, err error) {
	if err != nil {
		fmt.Fprintf(h, "err %v\n", err)
		return
	}
	fmt.Fprintf(h, "front %d\n", len(res.Front))
	for _, s := range res.Front {
		fmt.Fprintf(h, "%x %x", math.Float64bits(s.Psi), math.Float64bits(s.Upsilon))
		for i := range jobs {
			fmt.Fprintf(h, " %d", s.Starts[jobs[i].ID])
		}
		fmt.Fprintln(h)
	}
}

// TestSolveGolden pins the evolved fronts bit for bit: generated systems
// at U ∈ {0.3, 0.6, 0.9} × 3 seeds with the reconfiguration's ideal snap
// and ideal seeding on and off, one job set whose gene bounds fall back to
// the feasible window, one system that only the fixed-priority fallback
// schedules, and a generated system in reverse job order. Any change to
// the solver's arithmetic, draw order or gene-order tie-break moves the
// digest.
func TestSolveGolden(t *testing.T) {
	const want = "d2d9f0d50f6ad09f3b1596c13146e4378c0572c92e8b841b45927905b7f8af01"
	h := new(bytes.Buffer)
	cfg := gen.PaperConfig()
	for _, u := range []float64{0.3, 0.6, 0.9} {
		for seed := int64(1); seed <= 3; seed++ {
			ts, err := cfg.System(rand.New(rand.NewSource(seed)), u)
			if err != nil {
				fmt.Fprintf(h, "gen %g %d: %v\n", u, seed, err)
				continue
			}
			jobs := ts.Jobs()
			for _, ideal := range []bool{true, false} {
				opts := testOpts(seed)
				opts.Generations = 12
				opts.SeedIdeal, opts.SnapToIdeal = ideal, ideal
				fmt.Fprintf(h, "u=%g seed=%d ideal=%t jobs=%d\n", u, seed, ideal, len(jobs))
				res, err := Solve(jobs, opts)
				writeFront(h, jobs, res, err)
			}
		}
	}

	// θ < C on every job: geneBounds falls back to the feasible window.
	degenerate := []taskmodel.Job{
		{ID: taskmodel.JobID{Task: 0, J: 0}, Release: 0, Deadline: 100, Ideal: 95, C: 60, Theta: 2, P: 1, Vmax: 2, Vmin: 1},
		{ID: taskmodel.JobID{Task: 1, J: 0}, Release: 50, Deadline: 300, Ideal: 280, C: 90, Theta: 3, P: 2, Vmax: 3, Vmin: 1},
		{ID: taskmodel.JobID{Task: 2, J: 0}, Release: 100, Deadline: 260, Ideal: 150, C: 40, Theta: 1, P: 2, Vmax: 2, Vmin: 1},
	}
	// Two equal jobs whose boundaries both start at 45 cannot both finish
	// by 100 in gene order; the work-conserving fallback runs them at 0
	// and 40.
	fpsOnly := []taskmodel.Job{
		{ID: taskmodel.JobID{Task: 0, J: 0}, Release: 0, Deadline: 100, Ideal: 50, C: 40, Theta: 5, P: 1, Vmax: 2, Vmin: 1},
		{ID: taskmodel.JobID{Task: 1, J: 0}, Release: 0, Deadline: 100, Ideal: 50, C: 40, Theta: 5, P: 2, Vmax: 2, Vmin: 1},
	}
	// A generated system handed over in reverse job order.
	ts, err := cfg.System(rand.New(rand.NewSource(1)), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	reversed := ts.Jobs()
	slices.Reverse(reversed)
	for _, c := range []struct {
		name string
		jobs []taskmodel.Job
	}{{"degenerate", degenerate}, {"fps-only", fpsOnly}, {"reversed", reversed}} {
		fmt.Fprintf(h, "%s\n", c.name)
		res, err := Solve(c.jobs, testOpts(4))
		writeFront(h, c.jobs, res, err)
	}

	sum := sha256.Sum256(h.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("front digest %s, want %s", got, want)
	}
}

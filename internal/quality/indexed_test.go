package quality

import (
	"math/rand"
	"testing"

	"repro/internal/taskmodel"
	"repro/internal/timing"
)

// TestIndexedMatchesMapMetrics: the allocation-free index-keyed forms
// agree exactly with the map-keyed originals on randomised schedules —
// the equivalence the GA hot path relies on.
func TestIndexedMatchesMapMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	curves := []Curve{Linear{}, Penalised{Base: Linear{}, Penalty: -1000}, Exponential{Sharpness: 2}}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(20)
		jobs := make([]taskmodel.Job, n)
		idx := make([]timing.Time, n)
		m := make(StartTimes, n)
		for i := range jobs {
			ideal := timing.Time(100 + rng.Intn(1000))
			jobs[i] = taskmodel.Job{
				ID:       taskmodel.JobID{Task: i / 3, J: i % 3},
				Release:  0,
				Deadline: ideal + 2000,
				Ideal:    ideal,
				C:        timing.Time(1 + rng.Intn(20)),
				Theta:    timing.Time(10 + rng.Intn(100)),
				P:        rng.Intn(4),
				Vmax:     2 + rng.Float64()*8,
				Vmin:     1,
			}
			start := ideal
			if rng.Intn(2) == 0 {
				start += timing.Time(rng.Intn(300)) - 150
			}
			idx[i] = start
			m[jobs[i].ID] = start
		}
		wantPsi, err := Psi(jobs, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := PsiIndexed(jobs, idx); got != wantPsi {
			t.Fatalf("trial %d: PsiIndexed = %g, Psi = %g", trial, got, wantPsi)
		}
		if n == 0 {
			continue
		}
		for _, c := range curves {
			wantUps, wantErr := Upsilon(jobs, m, c)
			ideal := IdealSum(jobs, c)
			if (wantErr == nil) != (ideal > 0) {
				t.Fatalf("trial %d: Upsilon error %v, IdealSum %g", trial, wantErr, ideal)
			}
			if got := SumIndexed(jobs, idx, c) / ideal; wantErr == nil && got != wantUps {
				t.Fatalf("trial %d: SumIndexed/IdealSum = %g, Upsilon = %g (curve %T)", trial, got, wantUps, c)
			}
		}
	}
}

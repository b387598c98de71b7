package quality

import (
	"fmt"
	"math"

	"repro/internal/taskmodel"
	"repro/internal/timing"
)

// Curve evaluates the quality of starting a job at a given instant.
// Implementations must be maximal at j.Ideal and must never exceed Vmax or
// fall below Vmin for feasible starts.
type Curve interface {
	// Value returns the quality of job j when its execution starts at t.
	// t must be a feasible start (within [Release, Deadline−C]); the value
	// for infeasible t is unspecified.
	Value(j *taskmodel.Job, t timing.Time) float64
}

// Linear is the paper's evaluation curve (Figure 1): a symmetric triangular
// decay from Vmax at δ to Vmin at δ±θ, and Vmin beyond.
type Linear struct{}

// Value implements Curve.
func (Linear) Value(j *taskmodel.Job, t timing.Time) float64 {
	dist := timing.Abs(t - j.Ideal)
	if j.Theta == 0 {
		if dist == 0 {
			return j.Vmax
		}
		return j.Vmin
	}
	if dist >= j.Theta {
		return j.Vmin
	}
	frac := float64(dist) / float64(j.Theta)
	return j.Vmax - (j.Vmax-j.Vmin)*frac
}

// Penalised wraps another curve and replaces the out-of-boundary quality
// with a fixed penalty value, modelling the paper's footnote 1: in
// safety-critical systems a large negative value (e.g. −1000) can be applied
// to I/O operations outside the timing boundary.
type Penalised struct {
	Base    Curve
	Penalty float64
}

// Value implements Curve.
func (p Penalised) Value(j *taskmodel.Job, t timing.Time) float64 {
	if timing.Abs(t-j.Ideal) >= j.Theta && t != j.Ideal {
		return p.Penalty
	}
	return p.Base.Value(j, t)
}

// StartTimes maps each job to its scheduled start instant κ.
type StartTimes map[taskmodel.JobID]timing.Time

// Exact reports whether job j starts exactly at its ideal instant under κ,
// i.e. Ti·j + δi − κi^j = 0 (Equation 1's membership test).
func Exact(j *taskmodel.Job, kappa timing.Time) bool { return kappa == j.Ideal }

// Psi returns Ψ = |E|/|λ|: the fraction of jobs started exactly at their
// ideal instants. It returns an error if any job lacks a start time.
// An empty job list yields Ψ = 0.
func Psi(jobs []taskmodel.Job, starts StartTimes) (float64, error) {
	if len(jobs) == 0 {
		return 0, nil
	}
	exact := 0
	for i := range jobs {
		k, ok := starts[jobs[i].ID]
		if !ok {
			return 0, fmt.Errorf("quality: job %v has no start time", jobs[i].ID)
		}
		if Exact(&jobs[i], k) {
			exact++
		}
	}
	return float64(exact) / float64(len(jobs)), nil
}

// Upsilon returns Υ = Σ V(κ) / Σ V(δ): the schedule's total quality
// normalised by the all-ideal quality (Equation 2). It returns an error if
// any job lacks a start time or if the ideal quality sum is not positive.
func Upsilon(jobs []taskmodel.Job, starts StartTimes, curve Curve) (float64, error) {
	if len(jobs) == 0 {
		return 0, nil
	}
	var got, ideal float64
	for i := range jobs {
		j := &jobs[i]
		k, ok := starts[j.ID]
		if !ok {
			return 0, fmt.Errorf("quality: job %v has no start time", j.ID)
		}
		got += curve.Value(j, k)
		ideal += curve.Value(j, j.Ideal)
	}
	if ideal <= 0 {
		return 0, fmt.Errorf("quality: ideal quality sum %g is not positive", ideal)
	}
	return got / ideal, nil
}

// PsiIndexed returns Ψ over index-keyed start times: starts[i] is the
// start instant of jobs[i]. It is the allocation-free form of Psi for hot
// paths (the GA fitness evaluator) that hold starts in a reusable slice
// instead of a StartTimes map; the two agree whenever the map holds the
// same instants. starts must have at least len(jobs) entries. An empty
// job list yields Ψ = 0.
func PsiIndexed(jobs []taskmodel.Job, starts []timing.Time) float64 {
	if len(jobs) == 0 {
		return 0
	}
	exact := 0
	for i := range jobs {
		if Exact(&jobs[i], starts[i]) {
			exact++
		}
	}
	return float64(exact) / float64(len(jobs))
}

// IdealSum returns Σ V(δ), Υ's denominator, summed in job order. It
// depends on the jobs alone, so a hot path scoring many start vectors for
// one job set (the GA fitness evaluator) computes it once and divides
// SumIndexed by it: the result equals Upsilon bit for bit whenever the
// sum is positive.
func IdealSum(jobs []taskmodel.Job, curve Curve) float64 {
	var ideal float64
	for i := range jobs {
		ideal += curve.Value(&jobs[i], jobs[i].Ideal)
	}
	return ideal
}

// SumIndexed returns Σ V(κ), Υ's numerator, over index-keyed start times
// (starts[i] belongs to jobs[i]; see PsiIndexed), summed in job order.
func SumIndexed(jobs []taskmodel.Job, starts []timing.Time, curve Curve) float64 {
	var got float64
	for i := range jobs {
		got += curve.Value(&jobs[i], starts[i])
	}
	return got
}

// Accuracy returns the timing accuracy of one job: |ideal − actual|, the
// paper's Section I definition (smaller is better; 0 is exact).
func Accuracy(j *taskmodel.Job, kappa timing.Time) timing.Time {
	return timing.Abs(kappa - j.Ideal)
}

// AccuracyStats summarises per-job accuracy over a schedule.
type AccuracyStats struct {
	// Exact is the number of jobs with zero deviation.
	Exact int
	// Total is the number of jobs measured.
	Total int
	// MeanDeviation is the average |ideal − actual| in ticks.
	MeanDeviation float64
	// MaxDeviation is the worst |ideal − actual|.
	MaxDeviation timing.Time
	// WithinBoundary is the number of jobs started inside [δ−θ, δ+θ].
	WithinBoundary int
}

// MeasureAccuracy computes accuracy statistics for the given schedule.
func MeasureAccuracy(jobs []taskmodel.Job, starts StartTimes) (AccuracyStats, error) {
	var s AccuracyStats
	var sum int64
	for i := range jobs {
		j := &jobs[i]
		k, ok := starts[j.ID]
		if !ok {
			return AccuracyStats{}, fmt.Errorf("quality: job %v has no start time", j.ID)
		}
		dev := Accuracy(j, k)
		s.Total++
		if dev == 0 {
			s.Exact++
		}
		if dev <= j.Theta {
			s.WithinBoundary++
		}
		if dev > s.MaxDeviation {
			s.MaxDeviation = dev
		}
		sum += int64(dev)
	}
	if s.Total > 0 {
		s.MeanDeviation = float64(sum) / float64(s.Total)
	}
	return s, nil
}

// Exponential is an alternative quality curve for applications with sharp
// accuracy requirements: quality decays exponentially with the deviation,
// reaching Vmin at the boundary edges and staying there beyond. Sharpness
// controls how fast the decay bites (2 ≈ noticeably steeper than linear;
// the paper notes the exact curve is application-dependent and evaluates
// with the linear one).
type Exponential struct {
	Sharpness float64
}

// Value implements Curve.
func (e Exponential) Value(j *taskmodel.Job, t timing.Time) float64 {
	dist := timing.Abs(t - j.Ideal)
	if j.Theta == 0 {
		if dist == 0 {
			return j.Vmax
		}
		return j.Vmin
	}
	if dist >= j.Theta {
		return j.Vmin
	}
	s := e.Sharpness
	if s <= 0 {
		s = 2
	}
	frac := float64(dist) / float64(j.Theta)
	// Normalised exponential decay: 1 at frac=0, 0 at frac=1.
	denom := 1 - math.Exp(-s)
	scale := (math.Exp(-s*frac) - math.Exp(-s)) / denom
	return j.Vmin + (j.Vmax-j.Vmin)*scale
}

package ga

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/exec"
	"repro/internal/quality"
	"repro/internal/sched"
	"repro/internal/taskmodel"
	"repro/internal/timing"
)

// Options configures the solver. PaperOptions returns the evaluation's
// settings; DefaultOptions returns a faster configuration with the same
// structure for tests and interactive use.
type Options struct {
	// Population is the number of individuals (paper: 300).
	Population int
	// Generations is the iteration budget (paper: 500).
	Generations int
	// CrossoverRate is the probability a child is produced by uniform
	// crossover rather than cloning the first parent.
	CrossoverRate float64
	// MutationRate is the per-gene probability of redrawing the start time
	// inside the timing boundary. Zero means 1/len(jobs).
	MutationRate float64
	// TournamentSize controls selection pressure.
	TournamentSize int
	// Seed drives all randomness. Determinism contract: the same Seed,
	// jobs and options produce the same Result at every Parallelism. The
	// solver never draws from one shared stream across the run — it
	// derives one sub-seed for the initial population and one per
	// generation (exec.DeriveSeed), breeds serially from the generation's
	// private source, and evaluates fitness (which consumes no
	// randomness) in parallel, so worker scheduling can neither race on
	// nor reorder random draws.
	Seed int64
	// Parallelism bounds the goroutines used for fitness evaluation;
	// <= 0 selects one worker per CPU, 1 evaluates inline. It never
	// changes the evolved front — only the wall-clock time.
	Parallelism int
	// Curve is the quality model for Υ; nil means quality.Linear.
	Curve quality.Curve
	// SeedIdeal, when true, plants one all-ideal individual in the initial
	// population; the reconfiguration of that individual is a strong
	// starting point. Disabled in the ablation experiment.
	SeedIdeal bool
	// SnapToIdeal enables the reconfiguration function's pull towards ideal
	// start instants ("tries to execute them at their ideal starting
	// times"). Disabled in the ablation experiment.
	SnapToIdeal bool
}

// PaperOptions returns the Section V-A solver configuration
// (population 300, 500 iterations).
func PaperOptions() Options {
	return Options{
		Population:     300,
		Generations:    500,
		CrossoverRate:  0.9,
		TournamentSize: 2,
		SeedIdeal:      true,
		SnapToIdeal:    true,
	}
}

// DefaultOptions returns a reduced-budget configuration that preserves the
// algorithm's structure; experiments that must finish quickly use it and
// record the deviation from the paper's budget.
func DefaultOptions() Options {
	o := PaperOptions()
	o.Population = 60
	o.Generations = 80
	return o
}

func (o *Options) normalize(n int) {
	if o.Population < 2 {
		o.Population = 2
	}
	if o.Generations < 1 {
		o.Generations = 1
	}
	if o.CrossoverRate <= 0 {
		o.CrossoverRate = 0.9
	}
	if o.MutationRate <= 0 {
		if n > 0 {
			o.MutationRate = 1 / float64(n)
		} else {
			o.MutationRate = 0.05
		}
	}
	if o.TournamentSize < 2 {
		o.TournamentSize = 2
	}
	if o.Curve == nil {
		o.Curve = quality.Linear{}
	}
}

// Solution is one feasible non-dominated schedule found by the search.
type Solution struct {
	Starts  quality.StartTimes
	Psi     float64
	Upsilon float64
}

// Result is the outcome of a GA run: the non-dominated front, sorted by
// decreasing Ψ (and increasing Υ, by the definition of non-domination).
type Result struct {
	Front []Solution
}

// Best returns the front solution maximising w·Ψ + (1−w)·Υ.
func (r *Result) Best(w float64) Solution {
	best := r.Front[0]
	bestScore := w*best.Psi + (1-w)*best.Upsilon
	for _, s := range r.Front[1:] {
		if score := w*s.Psi + (1-w)*s.Upsilon; score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// BestPsi returns the front solution with maximum Ψ.
func (r *Result) BestPsi() Solution { return r.Best(1) }

// BestUpsilon returns the front solution with maximum Υ.
func (r *Result) BestUpsilon() Solution { return r.Best(0) }

// Scheduler wraps the solver behind the sched.Scheduler interface.
// Schedule returns the balanced (w = 0.5) front solution.
type Scheduler struct {
	Opts Options
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "ga" }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(jobs []taskmodel.Job) (*sched.Schedule, error) {
	res, err := Solve(jobs, s.Opts)
	if err != nil {
		return nil, err
	}
	best := res.Best(0.5)
	return sched.New(jobs, best.Starts)
}

// gene bounds for one job: the timing boundary intersected with the
// feasible window.
type bounds struct{ lo, hi timing.Time }

func geneBounds(j *taskmodel.Job) (bounds, error) {
	lo := timing.Max(j.Release, j.Ideal-j.Theta)
	hi := timing.Min(j.Ideal+j.Theta, j.LatestStart())
	if lo > hi {
		// Degenerate (θ < C hand-built sets): fall back to the window.
		lo, hi = j.Release, j.LatestStart()
		if lo > hi {
			return bounds{}, fmt.Errorf("ga: job %v can never meet its deadline: %w",
				j.ID, sched.ErrInfeasible)
		}
	}
	return bounds{lo: lo, hi: hi}, nil
}

// Seed-stream tags for exec.DeriveSeed: the initial population draws from
// stream (streamInit), generation g breeds from stream (streamGen, g).
const (
	streamInit int64 = iota
	streamGen
)

// Solve runs the GA on the jobs of one device partition and returns the
// non-dominated front. It returns ErrInfeasible if no feasible individual
// was ever found.
//
// Each generation proceeds in three deterministic phases: breed the whole
// offspring population serially from the generation's derived random
// source, score every offspring on the worker pool (scoring is a pure
// function of the genes), then apply archive offers and slot elitism
// serially in slot order. See Options.Seed for the determinism contract.
func Solve(jobs []taskmodel.Job, opts Options) (*Result, error) {
	if len(jobs) == 0 {
		return &Result{Front: []Solution{{Starts: quality.StartTimes{}, Psi: 0, Upsilon: 0}}}, nil
	}
	opts.normalize(len(jobs))
	pool := exec.New(opts.Parallelism)
	prob, err := newProblem(jobs, opts)
	if err != nil {
		return nil, err
	}
	bs := prob.bounds

	// Two gene slabs, one row per slot, hold the current population and
	// the offspring; they swap roles every generation, so breeding never
	// allocates. One source, re-seeded at every stream boundary, draws
	// exactly what a fresh exec.RNG on the same path would.
	n := len(jobs)
	pop := make([]individual, opts.Population)
	next := make([]individual, opts.Population)
	slabs := [2][]timing.Time{make([]timing.Time, opts.Population*n), make([]timing.Time, opts.Population*n)}
	for k := range pop {
		pop[k].genes = slabs[0][k*n : (k+1)*n : (k+1)*n]
		next[k].genes = slabs[1][k*n : (k+1)*n : (k+1)*n]
	}
	rng := exec.RNG(opts.Seed, streamInit)
	for k := range pop {
		randomGenes(rng, bs, pop[k].genes)
	}
	if opts.SeedIdeal {
		for i := range jobs {
			pop[0].genes[i] = clampT(jobs[i].Ideal, bs[i].lo, bs[i].hi)
		}
	}
	arch := &archive{}
	weights := make([]float64, opts.Population)
	for k := range weights {
		if opts.Population == 1 {
			weights[k] = 0.5
		} else {
			weights[k] = float64(k) / float64(opts.Population-1)
		}
	}
	// One evaluator (with its private scratch) per worker chunk, reused
	// across every generation: the eval inner loop allocates nothing.
	nev := pool.Workers()
	if nev > opts.Population {
		nev = opts.Population
	}
	evs := make([]evaluator, nev)
	for c := range evs {
		evs[c] = newEvaluator(prob)
	}
	// Scoring consumes no randomness and each chunk writes only its own
	// slots, so the chunk count cannot affect the scores. The chunk
	// function is built once and reads the batch being scored from batch.
	var batch []individual
	scoreChunk := func(_ context.Context, c int) error {
		ev := &evs[c]
		lo, hi := c*len(batch)/len(evs), (c+1)*len(batch)/len(evs)
		for k := lo; k < hi; k++ {
			batch[k].psi, batch[k].ups, batch[k].feasible = ev.eval(batch[k].genes)
		}
		return nil
	}
	evaluate := func(b []individual) {
		batch = b
		// scoreChunk never fails; ignore Each's nil result.
		_ = pool.Each(context.Background(), len(evs), scoreChunk)
		// Archive offers run serially in slot order (determinism), and a
		// solution's StartTimes map is materialised only when the archive
		// actually accepts it — re-running the deterministic repair for the
		// rare accepted individual instead of allocating a map per
		// evaluation.
		for k := range batch {
			ind := &batch[k]
			if !ind.feasible || !arch.wouldAccept(ind.psi, ind.ups) {
				continue
			}
			arch.insert(Solution{Starts: evs[0].materialize(ind.genes), Psi: ind.psi, Upsilon: ind.ups})
		}
	}
	evaluate(pop)

	for gen := 0; gen < opts.Generations; gen++ {
		rng.Seed(exec.DeriveSeed(opts.Seed, streamGen, int64(gen)))
		for k := 0; k < opts.Population; k++ {
			w := weights[k]
			p1 := tournament(rng, pop, w, opts.TournamentSize)
			p2 := tournament(rng, pop, w, opts.TournamentSize)
			child := next[k].genes
			if rng.Float64() < opts.CrossoverRate {
				for i := range child {
					if rng.Intn(2) == 0 {
						child[i] = pop[p1].genes[i]
					} else {
						child[i] = pop[p2].genes[i]
					}
				}
			} else {
				copy(child, pop[p1].genes)
			}
			for i := range child {
				if rng.Float64() < opts.MutationRate {
					child[i] = randomGene(rng, bs[i])
				}
			}
		}
		evaluate(next)
		// Slot elitism: keep the incumbent when it scores better under the
		// slot's weight. Its genes are copied into the offspring's row, so
		// the two slabs never share a row.
		for k := range next {
			if scalar(&pop[k], weights[k]) > scalar(&next[k], weights[k]) {
				genes := next[k].genes
				copy(genes, pop[k].genes)
				next[k] = pop[k]
				next[k].genes = genes
			}
		}
		pop, next = next, pop
	}

	if len(arch.sols) == 0 {
		return nil, fmt.Errorf("ga: no feasible individual after %d generations: %w",
			opts.Generations, sched.ErrInfeasible)
	}
	sort.Slice(arch.sols, func(a, b int) bool { return arch.sols[a].Psi > arch.sols[b].Psi })
	return &Result{Front: arch.sols}, nil
}

type individual struct {
	genes    []timing.Time
	psi      float64
	ups      float64
	feasible bool
}

func scalar(ind *individual, w float64) float64 {
	return w*ind.psi + (1-w)*ind.ups
}

func tournament(rng *rand.Rand, pop []individual, w float64, size int) int {
	best := rng.Intn(len(pop))
	for t := 1; t < size; t++ {
		c := rng.Intn(len(pop))
		if scalar(&pop[c], w) > scalar(&pop[best], w) {
			best = c
		}
	}
	return best
}

// randomGenes draws one gene per job into g.
func randomGenes(rng *rand.Rand, bs []bounds, g []timing.Time) {
	for i := range bs {
		g[i] = randomGene(rng, bs[i])
	}
}

func randomGene(rng *rand.Rand, b bounds) timing.Time {
	return b.lo + timing.Time(rng.Int63n(int64(b.hi-b.lo)+1))
}

func clampT(v, lo, hi timing.Time) timing.Time {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// problem is the per-Solve state every evaluator shares read-only: the
// jobs with their gene bounds, plus the constants of the gene-order sort
// and of Υ, computed once instead of once per evaluation.
type problem struct {
	jobs   []taskmodel.Job
	bounds []bounds
	curve  quality.Curve
	snap   bool
	// rank[i] is jobs[i]'s position under the layout tie-break (higher
	// priority first, then Task, then J, then input index), so the
	// (gene, rank) sort key is unique for every job.
	rank []int
	// byLo lists the job indices by gene lower bound (ties by index): the
	// order each evaluation lays its sort keys out in before sorting.
	byLo []int
	// ideal is Σ V(δ) over the jobs in input order, Υ's denominator.
	ideal float64
}

func newProblem(jobs []taskmodel.Job, opts Options) (*problem, error) {
	n := len(jobs)
	p := &problem{jobs: jobs, bounds: make([]bounds, n), curve: opts.Curve, snap: opts.SnapToIdeal}
	for i := range jobs {
		b, err := geneBounds(&jobs[i])
		if err != nil {
			return nil, err
		}
		p.bounds[i] = b
	}
	p.ideal = quality.IdealSum(jobs, opts.Curve)
	if p.ideal <= 0 {
		return nil, fmt.Errorf("ga: ideal quality sum %g is not positive", p.ideal)
	}
	byRank := identity(n)
	sort.SliceStable(byRank, func(a, b int) bool {
		ja, jb := &jobs[byRank[a]], &jobs[byRank[b]]
		if ja.P != jb.P {
			return ja.P > jb.P
		}
		if ja.ID.Task != jb.ID.Task {
			return ja.ID.Task < jb.ID.Task
		}
		return ja.ID.J < jb.ID.J
	})
	p.rank = make([]int, n)
	for r, i := range byRank {
		p.rank[i] = r
	}
	p.byLo = identity(n)
	sort.SliceStable(p.byLo, func(a, b int) bool { return p.bounds[p.byLo[a]].lo < p.bounds[p.byLo[b]].lo })
	return p, nil
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// geneKey is one job's entry in the gene-order sort.
type geneKey struct {
	gene timing.Time
	idx  int
}

// evaluator runs the reconfiguration function and scores individuals. Its
// scratch slices live for the whole Solve, so the eval inner loop performs
// no heap allocation: start times stay in an index-keyed slice (starts[i]
// belongs to jobs[i]) and only archive-bound individuals ever pay for a
// StartTimes map (materialize).
type evaluator struct {
	*problem
	// scratch reused across evaluations
	keys   []geneKey
	starts []timing.Time
	ready  []int
	// The FPS fallback ignores the genes, so its schedule — and whether one
	// exists at all — is a property of the job set alone: simulate once and
	// memoise the verdict, the starts and the scores.
	fpsDone   bool
	fpsOK     bool
	fpsStarts []timing.Time
	fpsPsi    float64
	fpsUps    float64
}

func newEvaluator(p *problem) evaluator {
	n := len(p.jobs)
	return evaluator{problem: p, keys: make([]geneKey, n), starts: make([]timing.Time, n)}
}

// geneOrder returns the jobs in layout order: by gene, ties by rank. The
// keys start in byLo order, which is the sorted order whenever the genes
// fall in the same order as their lower bounds, and otherwise is off only
// where two jobs' gene ranges overlap; an inline insertion sort therefore
// runs in near-linear time. The (gene, rank) keys are unique, so any
// correct sort yields this same order.
func (e *evaluator) geneOrder(genes []timing.Time) []geneKey {
	keys, rank := e.keys, e.rank
	for k, i := range e.byLo {
		keys[k] = geneKey{gene: genes[i], idx: i}
	}
	for i := 1; i < len(keys); i++ {
		key := keys[i]
		j := i
		for ; j > 0; j-- {
			prev := keys[j-1]
			if prev.gene < key.gene || (prev.gene == key.gene && rank[prev.idx] < rank[key.idx]) {
				break
			}
			keys[j] = prev
		}
		keys[j] = key
	}
	return keys
}

// eval repairs the genes into a feasible layout and returns (Ψ, Υ, true);
// infeasible layouts return (−1, −1, false).
//
// Repair runs in two stages. Stage one is the paper's reconfiguration:
// lay the jobs out in gene order, delaying to resolve overlaps and
// snapping to ideal instants when possible. When that order busts a
// deadline, stage two falls back to a work-conserving fixed-priority
// simulation that ignores the genes entirely: it produces a feasible
// schedule whenever priority-driven execution can meet the deadlines, so a
// crowded system degrades the individual's objectives instead of emptying
// the archive. Stage two is what lets the GA's schedulability track the
// clairvoyant FPS bound instead of collapsing (Figure 5's ordering).
func (e *evaluator) eval(genes []timing.Time) (float64, float64, bool) {
	if e.layout(genes) {
		return e.score(e.starts)
	}
	if e.fps() {
		return e.fpsPsi, e.fpsUps, true
	}
	return -1, -1, false
}

func (e *evaluator) score(starts []timing.Time) (float64, float64, bool) {
	return quality.PsiIndexed(e.jobs, starts), quality.SumIndexed(e.jobs, starts, e.curve) / e.ideal, true
}

// materialize re-runs the deterministic repair for genes and returns the
// start times as the public map representation. Only archive-accepted
// individuals reach it, keeping the map allocation off the eval hot path.
func (e *evaluator) materialize(genes []timing.Time) quality.StartTimes {
	var src []timing.Time
	switch {
	case e.layout(genes):
		src = e.starts
	case e.fps():
		src = e.fpsStarts
	default:
		panic("ga: materialize called for an infeasible individual")
	}
	m := make(quality.StartTimes, len(e.jobs))
	for i := range e.jobs {
		m[e.jobs[i].ID] = src[i]
	}
	return m
}

// layout performs the gene-order repair pass (ties: higher priority
// first, as footnote 2 prescribes), writing the schedule into e.starts.
// It returns false when the order misses a deadline.
func (e *evaluator) layout(genes []timing.Time) bool {
	order := e.geneOrder(genes)
	var cursor timing.Time
	for oi, key := range order {
		j := &e.jobs[key.idx]
		start := key.gene
		if start < j.Release {
			start = j.Release
		}
		if start < cursor {
			start = cursor
		}
		if e.snap && start <= j.Ideal {
			// Pull towards the ideal instant when that cannot reorder the
			// layout: the next job's gene must not want the gap.
			snapped := j.Ideal
			if oi+1 < len(order) {
				if nxt := order[oi+1].gene; snapped+j.C > nxt {
					snapped = start
				}
			}
			start = snapped
		}
		if start+j.C > j.Deadline {
			return false
		}
		e.starts[key.idx] = start
		cursor = start + j.C
	}
	return true
}

// fps returns whether the fixed-priority fallback schedule exists, running
// the simulation on first use and serving the memo afterwards.
func (e *evaluator) fps() bool {
	if !e.fpsDone {
		e.fpsDone = true
		e.fpsOK = e.simulateFPS()
		if e.fpsOK {
			e.fpsPsi, e.fpsUps, _ = e.score(e.fpsStarts)
		}
	}
	return e.fpsOK
}

// simulateFPS is the repair fallback: a work-conserving non-preemptive
// fixed-priority simulation over the partition's jobs (the discipline the
// FPS-offline baseline uses), writing the schedule into e.fpsStarts. It
// returns false when even that misses a deadline. The genes play no role,
// so every individual repaired this way shares the same (feasible,
// low-quality) point — selection then pulls the population back towards
// gene-feasible regions.
func (e *evaluator) simulateFPS() bool {
	n := len(e.jobs)
	e.fpsStarts = make([]timing.Time, n)
	order := identity(n)
	sort.SliceStable(order, func(a, b int) bool {
		return e.jobs[order[a]].Release < e.jobs[order[b]].Release
	})
	ready := e.ready[:0]
	next := 0
	var now timing.Time
	for done := 0; done < n; done++ {
		for next < n && e.jobs[order[next]].Release <= now {
			ready = append(ready, order[next])
			next++
		}
		if len(ready) == 0 {
			now = e.jobs[order[next]].Release
			done--
			continue
		}
		pick := 0
		for i := 1; i < len(ready); i++ {
			ja, jb := &e.jobs[ready[i]], &e.jobs[ready[pick]]
			if ja.P > jb.P || (ja.P == jb.P && ja.Release < jb.Release) {
				pick = i
			}
		}
		idx := ready[pick]
		ready = append(ready[:pick], ready[pick+1:]...)
		j := &e.jobs[idx]
		start := timing.Max(now, j.Release)
		if start+j.C > j.Deadline {
			e.ready = ready[:0]
			return false
		}
		e.fpsStarts[idx] = start
		now = start + j.C
	}
	e.ready = ready[:0]
	return true
}

// archive keeps the non-dominated (Ψ, Υ) solutions seen so far.
type archive struct {
	sols []Solution
}

// wouldAccept reports whether a feasible individual scoring (psi, ups)
// would enter the archive: true unless some member dominates or equals it.
func (a *archive) wouldAccept(psi, ups float64) bool {
	for i := range a.sols {
		s := &a.sols[i]
		if s.Psi >= psi && s.Upsilon >= ups {
			return false // dominated or duplicate
		}
	}
	return true
}

// insert adds an accepted solution, pruning members it now dominates.
// Callers must have checked wouldAccept first.
func (a *archive) insert(sol Solution) {
	kept := a.sols[:0]
	for i := range a.sols {
		s := a.sols[i]
		if sol.Psi >= s.Psi && sol.Upsilon >= s.Upsilon {
			continue // now dominated
		}
		kept = append(kept, s)
	}
	a.sols = append(kept, sol)
}

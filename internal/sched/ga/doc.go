// Package ga implements the paper's second scheduling method
// (Section III-B): a multi-objective genetic algorithm over the per-job
// start times κ that maximises both Ψ (the fraction of exactly
// timing-accurate jobs) and Υ (the normalised total quality).
//
// The encoding and operators follow the paper:
//
//   - the chromosome is the vector of start times κi^j, one gene per job;
//   - Constraint 1 (window containment) is enforced structurally: genes are
//     initialised and mutated inside the timing boundary
//     [Ti·j + δi − θi, Ti·j + δi + θi], clamped to the feasible window;
//   - Constraint 2 (non-overlap) is enforced by a reconfiguration function
//     applied before the objectives: jobs are laid out in gene order,
//     overlaps are resolved by delaying later jobs while preserving the
//     order (ties broken by priority), and each job is snapped to its ideal
//     instant when that is possible without disturbing the order;
//   - an individual that is infeasible after reconfiguration scores −1 on
//     both objectives;
//   - the population spreads its objective weights uniformly from (1.0, 0)
//     to (0, 1.0) so different slots press towards different ends of the
//     Pareto front;
//   - all non-dominated solutions found during the search are returned.
//
// # Evaluator invariants
//
// The fitness kernel is tuned for speed, but Solve's fronts are a pure
// function of (jobs, Options) and TestSolveGolden pins them bit for bit.
// The following keep it that way.
//
//   - Sort key. The reconfiguration lays jobs out in ascending (gene,
//     rank) order. rank is a job's position under the footnote-2
//     tie-break (higher priority first, then Task, then J, then input
//     index), computed once per Solve. The keys are unique, so the order
//     equals a stable sort by (gene, priority, Task, J) over the input.
//     Each evaluation lays its keys out by gene lower bound, a per-Solve
//     order in which in-bounds genes are nearly sorted, and finishes with
//     an inline insertion sort.
//   - Constant terms. Υ's denominator Σ V(δ) depends on the jobs alone.
//     It is summed once per Solve (quality.IdealSum), in job order, so
//     SumIndexed / IdealSum equals quality.Upsilon bit for bit.
//   - Slab ownership. Solve owns two gene slabs of Population × len(jobs)
//     genes. Row k of one slab is the population's slot k, row k of the
//     other is the offspring's. Breeding reads only population rows and
//     writes only offspring rows. Elitism copies the incumbent's genes
//     into the offspring row and never aliases a row. The slabs swap roles
//     after every generation. Evaluators only read genes. Each evaluator
//     owns its scratch (sort keys, starts, the FPS memo) and shares the
//     per-Solve constants read-only. Archive members hold their own
//     StartTimes maps, never slab rows.
//   - Reseeding. One *rand.Rand serves the whole Solve. It starts from
//     exec.DeriveSeed(Seed, streamInit) for the initial population and is
//     re-seeded with exec.DeriveSeed(Seed, streamGen, g) before generation
//     g breeds. rand.Rand.Seed restores a fresh source's state, so every
//     draw equals that of a new exec.RNG on the same path. Only breeding
//     draws; scoring consumes no randomness.
package ga

package ga

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/taskmodel"
	"repro/internal/timing"
)

// layoutSorter is the reference gene order: sort.Stable over the job
// indices by gene, then higher priority, then Task, then J, falling back
// to input order. The evaluator's typed insertion sort must reproduce it
// exactly.
type layoutSorter struct {
	jobs  []taskmodel.Job
	genes []timing.Time
	order []int
}

func (s *layoutSorter) Len() int      { return len(s.order) }
func (s *layoutSorter) Swap(a, b int) { s.order[a], s.order[b] = s.order[b], s.order[a] }
func (s *layoutSorter) Less(a, b int) bool {
	ja, jb := &s.jobs[s.order[a]], &s.jobs[s.order[b]]
	ga, gb := s.genes[s.order[a]], s.genes[s.order[b]]
	if ga != gb {
		return ga < gb
	}
	if ja.P != jb.P {
		return ja.P > jb.P
	}
	if ja.ID.Task != jb.ID.Task {
		return ja.ID.Task < jb.ID.Task
	}
	return ja.ID.J < jb.ID.J
}

// TestGeneOrderMatchesStableSort: on random job sets in shuffled order,
// with ties forced at every level of the key (equal genes, equal
// priorities, even repeated job IDs), the evaluator's gene order equals
// the reference sort.Stable order.
func TestGeneOrderMatchesStableSort(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		jobs := make([]taskmodel.Job, n)
		for i := range jobs {
			release := timing.Time(r.Intn(4) * 100)
			jobs[i] = taskmodel.Job{
				ID:      taskmodel.JobID{Task: r.Intn(4), J: r.Intn(3)},
				Release: release, Deadline: release + 1000, Ideal: release + timing.Time(r.Intn(5)*20),
				C: 10, Theta: 40, P: r.Intn(3), Vmax: 2, Vmin: 1,
			}
		}
		sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].Ideal < jobs[b].Ideal })
		r.Shuffle(n, func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		opts := DefaultOptions()
		opts.normalize(n)
		p, err := newProblem(jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		ev := newEvaluator(p)
		genes := make([]timing.Time, n)
		for trial := 0; trial < 20; trial++ {
			for i := range genes {
				if trial%2 == 0 {
					genes[i] = randomGene(r, p.bounds[i])
				} else {
					genes[i] = p.bounds[i].lo + timing.Time(r.Intn(3)*20) // many equal genes
				}
			}
			ref := &layoutSorter{jobs: jobs, genes: genes, order: identity(n)}
			sort.Stable(ref)
			for k, key := range ev.geneOrder(genes) {
				if key.idx != ref.order[k] || key.gene != genes[key.idx] {
					t.Logf("seed %d trial %d: position %d holds job %d, want %d", seed, trial, k, key.idx, ref.order[k])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReseededSourceMatchesFreshRNG pins the reseeding contract Solve
// relies on: one *rand.Rand re-seeded with exec.DeriveSeed(path) draws
// the same Intn, Float64 and Int63n sequence as a fresh exec.RNG(path),
// whatever it drew before.
func TestReseededSourceMatchesFreshRNG(t *testing.T) {
	rng := exec.RNG(0, streamInit)
	for _, base := range []int64{0, 1, -7, 1 << 40} {
		for _, path := range [][]int64{{streamInit}, {streamGen, 0}, {streamGen, 1}, {streamGen, 499}} {
			fresh := exec.RNG(base, path...)
			rng.Seed(exec.DeriveSeed(base, path...))
			for k := 0; k < 500; k++ {
				if a, b := rng.Intn(2), fresh.Intn(2); a != b {
					t.Fatalf("base %d path %v draw %d: Intn(2) %d, fresh %d", base, path, k, a, b)
				}
				if a, b := rng.Intn(60), fresh.Intn(60); a != b {
					t.Fatalf("base %d path %v draw %d: Intn(60) %d, fresh %d", base, path, k, a, b)
				}
				if a, b := rng.Float64(), fresh.Float64(); a != b {
					t.Fatalf("base %d path %v draw %d: Float64 %g, fresh %g", base, path, k, a, b)
				}
				if a, b := rng.Int63n(1<<33+5), fresh.Int63n(1<<33+5); a != b {
					t.Fatalf("base %d path %v draw %d: Int63n %d, fresh %d", base, path, k, a, b)
				}
			}
		}
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// phase accumulates one measured phase of a run: the closed loop of steps
// from its first start to its last end. Fleet workloads report ops from
// progress-event goroutines, so every mutator locks.
type phase struct {
	tr *tracer // nil when untraced

	mu        sync.Mutex
	cells     int
	attempted int
	failed    int
	ops       []float64 // op latencies, ms
	samples   map[string][]float64
	counts    map[string]float64

	wall    time.Duration
	proc    procStats
	peakRSS float64 // MB
}

func newPhase(traced bool) *phase {
	p := &phase{samples: map[string][]float64{}, counts: map[string]float64{}}
	if traced {
		p.tr = newTracer()
	}
	return p
}

// op records one completed op's latency.
func (p *phase) op(d time.Duration) {
	p.mu.Lock()
	p.ops = append(p.ops, ms(d))
	p.mu.Unlock()
}

// delivered records verified grid cells and the ops attempted and failed
// along the way.
func (p *phase) delivered(cells, attempted, failed int) {
	p.mu.Lock()
	p.cells += cells
	p.attempted += attempted
	p.failed += failed
	p.mu.Unlock()
}

func (p *phase) sample(name string, v float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

func (p *phase) count(name string, v float64) {
	p.mu.Lock()
	p.counts[name] += v
	p.mu.Unlock()
}

func (p *phase) opCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.ops)
}

// runPhase drives the closed loop: inst.clients() clients, each starting
// its next step only after its previous one returns, until the phase has
// lasted seconds and holds at least inst.minOps() ops. Steps in flight at
// the deadline run to completion, so every counted cell is verified
// output.
func runPhase(ctx context.Context, inst instance, seconds float64, traced bool) (*phase, error) {
	p := newPhase(traced)
	limit := time.Duration((2*seconds + 60) * float64(time.Second))
	// Start from a collected heap returned to the OS, so the peak RSS is
	// the phase's own, not left over from set-up.
	debug.FreeOSMemory()
	before := readProc()
	stopRSS := sampleRSS(10 * time.Millisecond)
	start := time.Now()
	errs := make([]error, inst.clients())
	var failed atomic.Bool
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				if errs[c] = inst.step(ctx, p); errs[c] != nil {
					failed.Store(true)
					return
				}
				el := time.Since(start)
				if el.Seconds() >= seconds && p.opCount() >= inst.minOps() {
					return
				}
				if el > limit {
					errs[c] = fmt.Errorf("only %d of %d ops after %v", p.opCount(), inst.minOps(), el.Round(time.Second))
					return
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.peakRSS = stopRSS()
	p.proc = readProc().minus(before)
	return p, errors.Join(errs...)
}

// endToEnd derives the metrics every workload reports from a finished
// phase.
func (p *phase) endToEnd(m metrics) {
	m.set("cells_per_s", float64(p.cells)/p.wall.Seconds(), "cells/s")
	m.set("op_p50_ms", percentile(p.ops, 50), "ms")
	m.set("op_p95_ms", percentile(p.ops, 95), "ms")
	m.set("ops", float64(len(p.ops)), "count")
	m.set("failed_frac", float64(p.failed)/float64(max(p.attempted, 1)), "fraction")
	m.set("measured_s", p.wall.Seconds(), "s")
	m.set("peak_rss_mb", p.peakRSS, "MB")
}

// procMetrics reports the process-level numbers of a phase.
func (p *phase) procMetrics(m metrics) {
	m.set("proc.cpu_s", p.proc.cpu.Seconds(), "s")
	m.set("proc.cpu_util", p.proc.cpu.Seconds()/(p.wall.Seconds()*float64(runtime.GOMAXPROCS(0))), "fraction")
	m.set("proc.gc_cycles", float64(p.proc.gc), "count")
	m.set("proc.alloc_mb", float64(p.proc.alloc)/(1<<20), "MB")
}

// procStats is the benchmark process's own consumption; worker
// subprocesses are not counted.
type procStats struct {
	cpu   time.Duration
	gc    uint32
	alloc uint64
}

func readProc() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gc:    ms.NumGC,
		alloc: ms.TotalAlloc,
	}
}

func (a procStats) minus(b procStats) procStats {
	return procStats{cpu: a.cpu - b.cpu, gc: a.gc - b.gc, alloc: a.alloc - b.alloc}
}

// sampleRSS polls the process's resident set size every interval until
// stop is called, which returns the largest sample in MB.
func sampleRSS(interval time.Duration) (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		hi := 0.0
		for {
			if mb, err := residentMB(); err == nil && mb > hi {
				hi = mb
			}
			select {
			case <-done:
				peak <- hi
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// residentMB reads the process's resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", data)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile is the nearest-rank percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them; it
// needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

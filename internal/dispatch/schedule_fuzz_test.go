package dispatch

import (
	"runtime"
	"slices"
	"testing"
	"time"
)

// fuzzCopy is one attempt the schedule started, in flight or not.
type fuzzCopy struct {
	u      *Unit
	task   Task
	att    int
	worker string
}

// FuzzLedgerSchedule decodes its input into a schedule of start,
// complete, fail, expire, clock and liveness steps by three workers on
// a two-unit run, and drives the ledger's policy with it. After every
// step the rig checks that the journal, the event stream, a Tracker and
// the live ledger agree per unit and that attempt numbers never go
// back; the schedule itself checks that no unit completes twice and
// that Next never hands a worker a unit it failed while a live worker
// that has not failed it exists. A schedule that does not exhaust a
// unit is then finished and merged byte-identical to the unsharded run.
// Each input runs at most maxFuzzSteps steps, so what it allocates is
// bounded by a constant: a full-length schedule allocates about 7 MB.
func FuzzLedgerSchedule(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 1, 0, 2, 1, 0, 1, 1})
	f.Add([]byte{0x01, 0, 0, 2, 0, 0, 1, 0, 1, 2, 1, 0, 2})
	f.Add([]byte{0x06, 0, 0, 0, 1, 0, 2, 3, 9, 2, 0, 0, 0, 1, 1})
	f.Add([]byte{0x07, 0, 0, 5, 1, 2, 0, 0, 0, 4, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const maxFuzzSteps = 48
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mode, steps := data[0], data[1:min(len(data), 1+2*maxFuzzSteps)]
		workers := []string{"a", "b", "c"}
		live := map[string]bool{"a": true, "b": true, "c": true}
		balance := BalanceRoundRobin
		if mode&1 != 0 {
			balance = BalanceCost
		}
		const timeout = 5 * time.Second
		r := newLedgerRig(t, balance, 2, 2+int(mode>>3&1), func(c *LedgerConfig) {
			c.Steal = mode&2 != 0
			c.RetryDelay = time.Duration(mode>>2&1) * 2 * time.Second
			c.AttemptTimeout = timeout
			c.Live = func(yield func(string) bool) {
				for _, w := range workers {
					if live[w] && !yield(w) {
						return
					}
				}
			}
		})
		var copies []fuzzCopy
		failed := map[int]map[string]bool{} // the schedule's own record, by unit id
		won := map[int]bool{}
		complete := func(c fuzzCopy) {
			if r.complete(c.u, c.task, c.att) {
				if won[c.u.id] {
					t.Fatalf("unit %d completed twice", c.u.id)
				}
				won[c.u.id] = true
			}
		}
		// fail reports a copy failed and reports whether the run goes on.
		fail := func(c fuzzCopy) bool {
			if _, ok := c.u.Copy(c.att); ok && !r.l.Settled(c.u) {
				if failed[c.u.id] == nil {
					failed[c.u.id] = map[string]bool{}
				}
				failed[c.u.id][c.worker] = true
			}
			v, children := r.fail(c.u, c.att)
			for _, ch := range children {
				failed[ch.id] = map[string]bool{}
				for w := range failed[c.u.id] {
					failed[ch.id][w] = true
				}
			}
			return v != FailExhausted
		}
		for i := 0; i+1 < len(steps); i += 2 {
			op, arg := steps[i]%6, steps[i+1]
			w := workers[int(arg)%len(workers)]
			switch op {
			case 0:
				u, steal := r.l.Next(w, r.clock)
				if u == nil {
					continue
				}
				if failed[u.id][w] {
					fresh := steal // a steal never goes to a worker that failed the unit
					for x := range r.cfg.Live {
						fresh = fresh || !failed[u.id][x]
					}
					if fresh {
						t.Fatalf("Next(%q) = unit %d (steal %v), which it failed, while a live worker has not", w, u.id, steal)
					}
				}
				task, att := r.startAs(w, u, steal)
				copies = append(copies, fuzzCopy{u, task, att, w})
			case 1, 2:
				if len(copies) == 0 {
					continue
				}
				c := copies[int(arg)%len(copies)]
				if op == 1 {
					complete(c)
				} else if !fail(c) {
					return
				}
			case 3:
				r.clock = r.clock.Add(time.Duration(arg%8) * time.Second)
				for _, c := range r.l.Expired(r.clock) {
					if r.clock.Sub(c.Started) < timeout {
						t.Fatalf("unit %d attempt %d expired after %v", c.Unit.id, c.Attempt, r.clock.Sub(c.Started))
					}
					i := slices.IndexFunc(copies, func(fc fuzzCopy) bool { return fc.u == c.Unit && fc.att == c.Attempt })
					if !fail(copies[i]) {
						return
					}
				}
			case 4:
				r.clock = r.clock.Add(time.Duration(arg%16) * time.Second)
			case 5:
				live[w] = !live[w]
			}
		}
		for _, c := range copies {
			if _, ok := c.u.Copy(c.att); ok {
				complete(c)
			}
		}
		r.clock = r.clock.Add(time.Hour)
		r.drain()
		r.mergeChecked()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32<<20 {
			t.Fatalf("one schedule allocated %d bytes", alloc)
		}
	})
}

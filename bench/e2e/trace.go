package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// layerOp marks a trace root: one op (or, for replay-dense, one replayed
// system). Its self time — the part no layer span covers — is the
// benchmark's own unattributed time.
const layerOp = "op"

// span is one timed call into a layer, recorded from the benchmark's own
// code. Parent is -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// root opens a new op now and returns its root span id.
func (t *tracer) root(name string) int {
	return t.rootAt(name, time.Now(), time.Time{})
}

// rootAt records an op whose instants were observed elsewhere (a zero end
// leaves it open).
func (t *tracer) rootAt(name string, start, end time.Time) int {
	return t.add(-1, layerOp, name, start, end)
}

// child opens a span under parent (-1 for one outside any op) now and
// returns its id; end closes it.
func (t *tracer) child(parent int, layer, name string) int {
	return t.add(parent, layer, name, time.Now(), time.Time{})
}

// add records a span with instants observed elsewhere (a zero end leaves
// it open). A root op is its own op; any other span belongs to its
// parent's.
func (t *tracer) add(parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: len(t.spans), Parent: parent, Op: -1, Layer: layer, Name: name, Start: int64(start.Sub(t.t0))}
	switch {
	case parent >= 0:
		s.Op = t.spans[parent].Op
	case layer == layerOp:
		s.Op = s.ID
	}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a child span of parent.
func (t *tracer) do(parent int, layer, name string, fn func() error) error {
	id := t.child(parent, layer, name)
	err := fn()
	t.end(id)
	return err
}

// summary is the trace reduced to per-layer numbers: self time per layer
// (a span's duration minus the part its children cover), total duration
// per layer span name, and the op wall time the layer spans leave
// uncovered.
type summary struct {
	opWall       time.Duration
	unattributed time.Duration
	layerSelf    map[string]time.Duration
	byName       map[string]time.Duration
}

func (t *tracer) summarize() summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	sum := summary{layerSelf: map[string]time.Duration{}, byName: map[string]time.Duration{}}
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for _, s := range t.spans {
		dur := time.Duration(s.End - s.Start)
		self := dur - covered(s, children[s.ID], t.spans)
		if s.Layer == layerOp {
			sum.opWall += dur
			sum.unattributed += self
			continue
		}
		sum.byName[s.Name] += dur
		sum.layerSelf[s.Layer] += self
	}
	return sum
}

// covered returns how much of s's interval the union of its children
// covers (children are clipped to s).
func covered(s span, kids []int, spans []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, reach int64
	reach = s.Start
	for _, v := range ivs {
		if v.a > reach {
			reach = v.a
		}
		if v.b > reach {
			total += v.b - reach
			reach = v.b
		}
	}
	return time.Duration(total)
}

// writeFile dumps the spans and the traced run's per-layer metrics.
func (t *tracer) writeFile(path string, layers metrics) error {
	t.mu.Lock()
	data, err := json.Marshal(struct {
		Layers metrics `json:"layers"`
		Spans  []span  `json:"spans"`
	}{layers, t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

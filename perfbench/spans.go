package main

import (
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer's public entrypoint, recorded by
// the benchmark around the call (the program itself is not
// instrumented). Spans stay in memory until the run ends.
type span struct {
	name   string
	layer  string
	suite  string // stock suite the call worked on, if any
	parent int    // index of the enclosing span, -1 at the top
	pass   int    // the unit of work the span belongs to (one compare, one chunk, ...)
	// pool marks a span on the critical path that holds the whole worker
	// pool (a serial step, or a call fanning out internally). It is
	// charged workers worker-seconds per second; a span run by one
	// worker of a fan-out is charged one.
	pool       bool
	start, end time.Duration // since the tracer's epoch
}

// tracer collects spans. A nil *tracer records nothing, so untraced
// code paths can call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	pass  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef identifies an open span.
type spanRef struct {
	t *tracer
	i int
}

// begin opens a span under parent (-1 for none).
func (t *tracer) begin(parent int, layer, name, suite string, pool bool) spanRef {
	if t == nil {
		return spanRef{i: -1}
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		name: name, layer: layer, suite: suite, parent: parent,
		pass: t.pass, pool: pool, start: now,
	})
	return spanRef{t: t, i: len(t.spans) - 1}
}

// end closes the span and returns its duration.
func (r spanRef) end() time.Duration {
	if r.t == nil {
		return 0
	}
	now := time.Since(r.t.epoch)
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	r.t.spans[r.i].end = now
	return now - r.t.spans[r.i].start
}

// id is the span's index, the parent reference of its children.
func (r spanRef) id() int { return r.i }

// nextPass starts a new unit of work; spans begun afterwards belong to it.
func (t *tracer) nextPass() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pass++
	return t.pass
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children's intervals cover (children of a
// fan-out overlap, so their union is subtracted, not their sum).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := time.Duration(0)
		iv := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			iv = append(iv, [2]time.Duration{spans[k].start, spans[k].end})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var curS, curE time.Duration
		open := false
		for _, v := range iv {
			if open && v[0] <= curE {
				if v[1] > curE {
					curE = v[1]
				}
				continue
			}
			if open {
				covered += curE - curS
			}
			curS, curE, open = v[0], v[1], true
		}
		if open {
			covered += curE - curS
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// perPass sums the durations of the spans matching keep within each
// pass and returns one total per pass that has any.
func perPass(spans []span, keep func(span) bool) []float64 {
	sums := map[int]time.Duration{}
	for _, s := range spans {
		if keep(s) {
			sums[s.pass] += s.end - s.start
		}
	}
	out := make([]float64, 0, len(sums))
	for _, d := range sums {
		out = append(out, d.Seconds())
	}
	sort.Float64s(out)
	return out
}

// perCall returns the duration in seconds of every span matching keep.
func perCall(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// named matches spans by name.
func named(name string) func(span) bool {
	return func(s span) bool { return s.name == name }
}

package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the trace origin, and the index of the span that enclosed it (-1 at the
// root).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Self   float64 `json:"self_s"`
}

// tracer keeps spans in memory for one repetition. A nil *tracer is the
// untraced run: every method is a no-op, so the timed code is the same in
// both runs apart from these calls.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return time.Since(t.origin).Seconds() }

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records a closed child of parent from durations a call returned
// rather than from timing it here (the engine's phase split). Children
// are laid end to end from at, in the order given.
func (t *tracer) add(parent int, at float64, parts []namedDur) {
	if t == nil {
		return
	}
	for _, p := range parts {
		t.spans = append(t.spans, span{Name: p.name, Start: at, End: at + p.d.Seconds(), Parent: parent})
		at += p.d.Seconds()
	}
}

type namedDur struct {
	name string
	d    time.Duration
}

// selfTimes sets each span's Self: its duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		ivs := make([][2]float64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]float64{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		covered, reach := 0.0, s.Start
		for _, iv := range ivs {
			a := max(iv[0], reach)
			if iv[1] > a {
				covered += iv[1] - a
				reach = iv[1]
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call made by the benchmark: a request it sent or a
// layer function it called in process. Spans of one probe share a trace id
// through their parent chain; times are nanoseconds since the run began.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps finished spans in memory until the run writes them out. A
// nil tracer records nothing, so the untraced run pays one nil check per
// call site.
type tracer struct {
	t0    time.Time
	seq   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// active is an open span; end records it.
type active struct {
	tr     *tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
}

func (t *tracer) start(name string, parent uint64) active {
	if t == nil {
		return active{}
	}
	return active{tr: t, id: t.seq.Add(1), parent: parent, name: name, start: time.Now()}
}

func (a active) end() time.Duration {
	if a.tr == nil {
		return 0
	}
	now := time.Now()
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, span{
		ID: a.id, Parent: a.parent, Name: a.name,
		Start: int64(a.start.Sub(a.tr.t0)), End: int64(now.Sub(a.tr.t0)),
	})
	a.tr.mu.Unlock()
	return now.Sub(a.start)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// spanSummary is one span name's totals: count, summed duration, and self
// time (duration minus the part its children cover).
type spanSummary struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := make(map[string]*spanSummary)
	for _, s := range t.spans {
		m := by[s.Name]
		if m == nil {
			m = &spanSummary{name: s.Name}
			by[s.Name] = m
		}
		m.count++
		m.total += s.dur()
		m.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]spanSummary, 0, len(by))
	for _, m := range by {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered is how much of parent's interval its children cover; children
// running concurrently count once.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var sum, end int64
	end = parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, end), min(c.End, parent.End)
		if hi > lo {
			sum += hi - lo
			end = hi
		}
	}
	return time.Duration(sum)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return bw.Flush()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

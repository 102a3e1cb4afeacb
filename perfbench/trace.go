package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"locat/internal/obs"
)

// span is one recorded interval. Spans of one session, pass, job or request
// share a trace ID; Parent is the innermost span that was open when this one
// started (0 for a root).
type span struct {
	Trace  string  `json:"trace"`
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	// Runs counts the executions a runner span covers.
	Runs int64 `json:"runs,omitempty"`
}

func (s span) dur() float64 { return (s.End - s.Start) / 1000 }

// recorder keeps every span of a traced run in memory; write dumps them
// when the run ends. A nil *recorder records nothing, which is how the
// untraced runs use the same code paths.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	next   int64
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return ms(t.Sub(r.origin)) }

// add records a finished span and returns its ID.
func (r *recorder) add(trace string, parent int64, name string, start, end time.Time) int64 {
	return r.addRuns(trace, parent, name, start, end, 0)
}

// addRuns records a finished span covering runs executions.
func (r *recorder) addRuns(trace string, parent int64, name string, start, end time.Time, runs int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{Trace: trace, ID: r.next, Parent: parent, Name: name,
		Start: r.at(start), End: r.at(end), Runs: runs})
	return r.next
}

// reserve claims a span ID for a span that is still open.
func (r *recorder) reserve() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

func (r *recorder) put(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, ordered by start.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file: %w", err)
	}
	return f.Close()
}

// sessionTracer is the obs.Tracer handed to core for one traced session. It
// keeps the stack of open spans so every span — the tuner's phases and the
// runner calls the timing runner records — gets its innermost open
// ancestor as parent.
type sessionTracer struct {
	rec   *recorder
	trace string

	mu    sync.Mutex
	stack []int64
}

func newSessionTracer(rec *recorder, trace string, root int64) *sessionTracer {
	return &sessionTracer{rec: rec, trace: trace, stack: []int64{root}}
}

// current returns the innermost open span.
func (t *sessionTracer) current() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stack[len(t.stack)-1]
}

// Start implements obs.Tracer.
func (t *sessionTracer) Start(name string) obs.Span {
	id := t.rec.reserve()
	t.mu.Lock()
	parent := t.stack[len(t.stack)-1]
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	return &tracerSpan{t: t, s: span{Trace: t.trace, ID: id, Parent: parent, Name: name,
		Start: t.rec.at(time.Now())}}
}

type tracerSpan struct {
	t    *sessionTracer
	s    span
	once sync.Once
}

func (s *tracerSpan) Add(int64, float64) {}

func (s *tracerSpan) End() {
	s.once.Do(func() {
		s.s.End = s.t.rec.at(time.Now())
		s.t.mu.Lock()
		for i := len(s.t.stack) - 1; i > 0; i-- {
			if s.t.stack[i] == s.s.ID {
				s.t.stack = append(s.t.stack[:i], s.t.stack[i+1:]...)
				break
			}
		}
		s.t.mu.Unlock()
		s.t.rec.put(s.s)
	})
}

// selfTimes returns every span's duration minus the part of its interval
// its children cover, in seconds, keyed by span ID.
func selfTimes(spans []span) map[int64]float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, lo, hi := 0.0, 0.0, -1.0
		for _, c := range cs {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, b
			} else if b > hi {
				hi = b
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		out[s.ID] = (s.End - s.Start - covered) / 1000
	}
	return out
}

// linkByContainment assigns each parentless span of one trace the innermost
// span of the same trace whose interval contains it — how the flat span
// list of the job trace endpoint becomes a tree.
func linkByContainment(spans []span) {
	for i := range spans {
		if spans[i].Parent != 0 {
			continue
		}
		best := -1
		for j := range spans {
			if i == j || spans[j].Trace != spans[i].Trace {
				continue
			}
			if spans[j].Start <= spans[i].Start && spans[i].End <= spans[j].End &&
				(spans[j].End-spans[j].Start) > (spans[i].End-spans[i].Start) {
				if best < 0 || spans[j].End-spans[j].Start < spans[best].End-spans[best].Start {
					best = j
				}
			}
		}
		if best >= 0 {
			spans[i].Parent = spans[best].ID
		}
	}
}

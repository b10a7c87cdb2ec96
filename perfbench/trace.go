package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"dftmsn/internal/scenario"
	"dftmsn/internal/sim"
)

// tracer keeps the traced pass's spans in memory; they are written out once
// the workload ends. Offsets are from the tracer's creation.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON, each with its self time.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	type out struct {
		span
		SelfNS time.Duration `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, selfTime(spans, i)}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// labelTotals sums the aggregated per-label spans into self time (seconds)
// and event counts per reported label.
func (t *tracer) labelTotals() (self map[string]float64, count map[string]float64) {
	self, count = map[string]float64{}, map[string]float64{}
	for _, s := range t.snapshot() {
		if s.Count == 0 {
			continue
		}
		self[s.Name] += (s.End - s.Start).Seconds()
		count[s.Name] += float64(s.Count)
	}
	return self, count
}

// tracedRun builds cfg and runs it under parent with a construct span, a run
// span and one aggregated child span per reported event label. The event
// hook charges the time between consecutive events to the label that just
// fired; the labels' spans are laid back to back from the run span's start,
// so the run span's self time is what no event accounts for. It returns the
// Result and the net seconds Sim.Run took.
func (t *tracer) tracedRun(cfg scenario.Config, parent int) (scenario.Result, float64, error) {
	run := t.begin("sim", parent)
	defer t.end(run)
	c := t.begin("construct", run)
	s, err := scenario.New(cfg)
	t.end(c)
	if err != nil {
		return scenario.Result{}, 0, err
	}
	prof := newLabelProfile(t.now)
	s.Scheduler().SetEventHook(func(_ sim.Time, _ uint64, label string) { prof.hook(label) })
	r := t.begin("run", run)
	prof.start()
	t0 := sampleRuntime()
	res, err := s.Run()
	wall := netSeconds(t0, sampleRuntime())
	t.end(r)
	if err != nil {
		return res, wall, err
	}
	self := map[string]time.Duration{}
	count := map[string]uint64{}
	var fired uint64
	for label, d := range prof.self {
		name := metricLabel(label)
		self[name] += d
		count[name] += prof.count[label]
		fired += prof.count[label]
	}
	if fired != res.Events {
		return res, wall, fmt.Errorf("event hook saw %d events, kernel fired %d", fired, res.Events)
	}
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[r].Start
	for _, name := range names {
		t.spans = append(t.spans, span{Name: name, Start: at, End: at + self[name], Parent: r, Count: count[name]})
		at += self[name]
	}
	return res, wall, nil
}

package main

import (
	"testing"
	"time"

	"dftmsn/internal/core"
	"dftmsn/internal/scenario"
)

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		want   float64
		p      float64
		wantOK bool
	}{
		{1000, 99, 99, true},   // ranks 991..1000 lie beyond p99
		{999, 99, 95, true},    // p99 would leave 9
		{2400, 99.9, 99, true}, // p99.9 would leave 2
		{300, 95, 95, true},    // 15 beyond
		{199, 95, 90, true},    // p95 would leave 9
		{20, 99, 50, true},     // only the median keeps 10 beyond
		{19, 99, 0, false},     // nothing does
		{5000, 50, 50, true},   // never above the percentile asked for
		{100000, 99.9, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n, c.want)
		if p != c.p || ok != c.wantOK {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.want, p, ok, c.p, c.wantOK)
		}
		if ok && c.n-rankOf(c.n, p) < minBeyond {
			t.Errorf("n=%d p%g leaves %d samples beyond", c.n, p, c.n-rankOf(c.n, p))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {10, 1}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: 10..50 counts once
		{Name: "c", Start: 70, End: 80, Parent: 0},
		{Name: "d", Start: 90, End: 120, Parent: 0}, // clipped to the parent: 90..100
		{Name: "a1", Start: 12, End: 28, Parent: 1}, // a grandchild covers nothing of root
	}
	if got := selfTime(spans, 0); got != 100-40-10-10 {
		t.Errorf("root self = %v, want 40", got)
	}
	if got := selfTime(spans, 1); got != 20-16 {
		t.Errorf("a self = %v, want 4", got)
	}
	if got := selfTime(spans, 5); got != 16 {
		t.Errorf("leaf self = %v, want its duration 16", got)
	}
}

func TestOpenLoopLatencyCountsGeneratorStall(t *testing.T) {
	// The generator stalls on the second request, which goes out 15 late;
	// the third is sent as soon as the second returns, 6 late.
	reqs := []openLoop{
		{due: 0, sent: 0, done: 5},
		{due: 10, sent: 25, done: 30},
		{due: 20, sent: 26, done: 31},
		{due: 40, sent: 39, done: 42}, // sent early: no lateness
	}
	wantLate := []time.Duration{0, 15, 6, 0}
	wantLat := []time.Duration{5, 20, 11, 2}
	for i, r := range reqs {
		if r.late() != wantLate[i] || r.latency() != wantLat[i] {
			t.Errorf("req %d: late %v latency %v, want %v %v", i, r.late(), r.latency(), wantLate[i], wantLat[i])
		}
	}
}

func TestLabelProfileChargesGapToFiredLabel(t *testing.T) {
	ticks := []time.Duration{0, 3, 10, 12, 20}
	i := 0
	p := newLabelProfile(func() time.Duration { d := ticks[i]; i++; return d })
	p.start()
	p.hook("frame-end") // 0..3
	p.hook("")          // 3..10
	p.hook("frame-end") // 10..12
	p.hook("wheel")     // 12..20
	want := map[string]time.Duration{"frame-end": 5, "": 7, "wheel": 8}
	for l, d := range want {
		if p.self[l] != d {
			t.Errorf("self[%q] = %v, want %v", l, p.self[l], d)
		}
	}
	if p.count["frame-end"] != 2 || p.count[""] != 1 || p.count["wheel"] != 1 {
		t.Errorf("counts = %v", p.count)
	}
	for label, name := range map[string]string{"": "timer", "idle-span": "idle-span", "drain": "other"} {
		if got := metricLabel(label); got != name {
			t.Errorf("metricLabel(%q) = %q, want %q", label, got, name)
		}
	}
}

// A traced run fires every kernel event through the hook, its label spans
// fit inside the run span, and observing it does not change its Result.
func TestTracedRunMatchesUntraced(t *testing.T) {
	cfg := scenario.DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = 10
	cfg.DurationSeconds = 300
	s, err := scenario.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	root := tr.begin("test", -1)
	got, _, err := tr.tracedRun(cfg, root)
	if err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	if !sameResult(got, want) {
		t.Fatal("traced Result differs from untraced")
	}
	spans := tr.snapshot()
	var runID int
	var labelled uint64
	for i, s := range spans {
		if s.Name == "run" {
			runID = i
		}
		labelled += s.Count
	}
	if labelled != want.Events {
		t.Errorf("label spans count %d events, kernel fired %d", labelled, want.Events)
	}
	if self := selfTime(spans, runID); self < 0 || self > spans[runID].End-spans[runID].Start {
		t.Errorf("run self time %v outside its duration", self)
	}
}

package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile:
// a tail read from fewer is one or two outliers, not a percentile.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs: the smallest
// sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailCandidates are the tail percentiles a report may use, highest first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile at or below want
// that leaves at least minBeyond of n samples above it, and false when even
// the median does not.
func tailPercentile(n int, want float64) (float64, bool) {
	for _, p := range tailCandidates {
		if p > want {
			continue
		}
		if n-rankOf(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// span is one traced interval. Parent is the index of the enclosing span
// (-1 for a root). Count is the number of events an aggregated span stands
// for (0 for an ordinary span).
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Count  uint64        `json:"count,omitempty"`
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ lo, hi time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
	covered := time.Duration(0)
	var cur iv
	open := false
	for _, k := range kids {
		switch {
		case !open:
			cur, open = k, true
		case k.lo <= cur.hi:
			cur.hi = max(cur.hi, k.hi)
		default:
			covered += cur.hi - cur.lo
			cur = k
		}
	}
	if open {
		covered += cur.hi - cur.lo
	}
	return p.End - p.Start - covered
}

// openLoop holds one open-loop request's timeline, as offsets from the
// start of the schedule: when it was due, when the generator sent it, and
// when its result was complete.
type openLoop struct {
	due, sent, done time.Duration
}

// latency is measured from the due time, so a generator stall counts
// against every request it delayed.
func (r openLoop) latency() time.Duration { return r.done - r.due }

// late is how far behind schedule the generator sent the request.
func (r openLoop) late() time.Duration { return max(r.sent-r.due, 0) }

// labelProfile attributes kernel time to event labels from the scheduler's
// post-event hook: the wall time since the previous hook (or since start)
// is charged to the label of the event that just fired.
type labelProfile struct {
	clock func() time.Duration
	last  time.Duration
	self  map[string]time.Duration
	count map[string]uint64
}

func newLabelProfile(clock func() time.Duration) *labelProfile {
	return &labelProfile{clock: clock, self: map[string]time.Duration{}, count: map[string]uint64{}}
}

// start marks the instant the first event's time is charged from.
func (p *labelProfile) start() { p.last = p.clock() }

// hook is the scheduler event hook body.
func (p *labelProfile) hook(label string) {
	now := p.clock()
	p.self[label] += now - p.last
	p.count[label]++
	p.last = now
}

// reportedLabels are the event labels given their own per-layer metrics;
// "" (unlabeled MAC timers, work cycles and arrivals) reports as "timer"
// and any other label folds into "other".
var reportedLabels = []string{"frame-end", "timer", "wheel", "idle-span", "radio-on", "radio-off", "other"}

// metricLabel maps a kernel event label to its reported name.
func metricLabel(label string) string {
	switch label {
	case "":
		return "timer"
	case "frame-end", "wheel", "idle-span", "radio-on", "radio-off":
		return label
	}
	return "other"
}

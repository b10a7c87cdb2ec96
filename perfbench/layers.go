package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"

	"dftmsn/internal/scenario"
)

// spanPath is where a workload's traced pass writes its spans.
func spanPath(workload string) string {
	return filepath.Join(".bench_build", "spans-"+workload+".json")
}

// setSimLayers reports the kernel counters and protocol sentinels summed
// over a workload's runs; wall is the untraced time those runs took.
func setSimLayers(r *run, results []scenario.Result, wall float64) {
	var events, elided, sent, delivered, collisions, drops, sleeps uint64
	var ctrl float64
	for _, res := range results {
		events += res.Events
		elided += res.EventsElided
		for _, n := range res.Channel.FramesSent {
			sent += n
		}
		for _, n := range res.Channel.FramesDelivered {
			delivered += n
		}
		collisions += res.Channel.Collisions
		drops += res.DropsFull + res.DropsThreshold
		sleeps += res.Sleeps
		ctrl += res.ControlBitsPerDelivered
	}
	r.set("sim.events", float64(events), "count")
	r.set("sim.events_elided", float64(elided), "count")
	if events > 0 {
		r.set("sim.ns_per_event", wall*1e9/float64(events), "ns")
	}
	r.set("radio.frames_sent", float64(sent), "count")
	if sent > 0 {
		r.set("radio.delivered_per_sent", float64(delivered)/float64(sent), "ratio")
	}
	r.set("radio.collisions", float64(collisions), "count")
	r.set("mac.control_bits_per_delivered", ctrl/float64(len(results)), "bits")
	r.set("buffer.drops", float64(drops), "count")
	r.set("core.sleeps", float64(sleeps), "count")
}

// setLabelLayers reports the traced pass's per-label self time and counts.
func setLabelLayers(r *run, tr *tracer) {
	self, count := tr.labelTotals()
	for _, l := range reportedLabels {
		r.set("sim.self_s."+l, self[l], "s")
		r.set("sim.count."+l, count[l], "count")
	}
}

// sameResult reports whether two Results are identical in every field the
// JSON digest carries, counters and floats alike.
func sameResult(a, b scenario.Result) bool {
	ja, errA := json.Marshal(a)
	jb, errB := json.Marshal(b)
	return errA == nil && errB == nil && bytes.Equal(ja, jb)
}

package scenario

import (
	"math"
	"testing"

	"dftmsn/internal/telemetry"
)

// TestCheckpointMidIdleSpan pins the τ-stream rewind edge: a checkpoint
// taken while nodes are inside coalesced idle spans — their σ sequences
// pre-drawn, their RNG rewind points captured — must restore and continue
// bit-identically. The generic differential covers the mechanism; this test
// asserts the edge actually occurs at the checkpoint instant.
func TestCheckpointMidIdleSpan(t *testing.T) {
	cfg := elisionConfigs()["nosleep-idle"]

	baseBuf := &telemetry.Buffer{}
	c := cfg
	c.Recorder = baseBuf
	sb, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := sb.Run()
	if err != nil {
		t.Fatal(err)
	}

	buf := &telemetry.Buffer{}
	c2 := cfg
	c2.Recorder = buf
	s, err := New(c2)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.CheckpointAt(0.4 * cfg.DurationSeconds)
	if err != nil {
		t.Fatal(err)
	}
	// The edge under test: at least one sensor checkpointed mid-plan with a
	// pre-drawn σ sequence and a rewind point.
	midPlan := 0
	for _, ns := range snap.Nodes {
		if ns.Plan != nil {
			if len(ns.Plan.Sigmas) == 0 || len(ns.Plan.RNGSnap) == 0 {
				t.Fatalf("node %d plan snapshot missing σ sequence or RNG rewind point: %+v", ns.ID, ns.Plan)
			}
			midPlan++
		}
	}
	if midPlan == 0 {
		t.Fatal("no node was inside an idle-span plan at the checkpoint; the edge is not exercised")
	}
	live := 0
	for _, n := range s.Sensors() {
		if n.IdleSpanActive() {
			live++
		}
	}
	for _, n := range s.Sinks() {
		if n.IdleSpanActive() {
			live++
		}
	}
	if live != midPlan {
		t.Fatalf("snapshot has %d active plans, live simulation has %d", midPlan, live)
	}
	prefix := append([]telemetry.Event(nil), buf.Events...)

	restBuf := &telemetry.Buffer{}
	restored, err := Restore(snap, func(c *Config) { c.Recorder = restBuf })
	if err != nil {
		t.Fatal(err)
	}
	restRes, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareArm(t, "mid-idle-span restore", baseRes, restRes, baseBuf.Events, concatEvents(prefix, restBuf.Events))
}

// TestCheckpointOnWheelTick pins the wheel rearm edge: a checkpoint taken at
// an instant where a mobility wheel tick just fired (the wheel has consumed
// its event and re-armed the next) must restore and continue bit-identically.
// The eager arm guarantees every tick is a real fired event to land on.
func TestCheckpointOnWheelTick(t *testing.T) {
	cfg := elisionConfigs()["opt-plain"]
	cfg.eagerDecay = true

	baseBuf := &telemetry.Buffer{}
	c := cfg
	c.Recorder = baseBuf
	sb, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := sb.Run()
	if err != nil {
		t.Fatal(err)
	}

	buf := &telemetry.Buffer{}
	c2 := cfg
	c2.Recorder = buf
	s, err := New(c2)
	if err != nil {
		t.Fatal(err)
	}
	// Step to the first quiescent instant past 200 s that falls exactly on
	// a mobility tick (ticks fire at whole seconds).
	sched := s.Scheduler()
	for {
		next, ok := sched.NextEventTime()
		if !ok || float64(next) > cfg.DurationSeconds {
			t.Fatal("no tick-aligned quiescent instant found")
		}
		sched.Step()
		now := float64(sched.Now())
		if now > 200 && now == math.Trunc(now) && s.quiescent() {
			break
		}
	}
	tickAt := float64(sched.Now())
	snap, err := s.CheckpointAt(tickAt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Time != tickAt {
		t.Fatalf("checkpoint moved off the tick: took it at %v, wanted %v", snap.Time, tickAt)
	}
	if snap.Wheel.Ev == nil || float64(snap.Wheel.Ev.At) != tickAt+cfg.MobilityTickSeconds {
		t.Fatalf("wheel not re-armed for the next tick: %+v", snap.Wheel)
	}
	prefix := append([]telemetry.Event(nil), buf.Events...)

	restBuf := &telemetry.Buffer{}
	restored, err := Restore(snap, func(c *Config) {
		c.Recorder = restBuf
		c.eagerDecay = true // the arm is not encoded; the snapshot holds eager state
	})
	if err != nil {
		t.Fatal(err)
	}
	restRes, err := restored.Run()
	if err != nil {
		t.Fatal(err)
	}
	compareArm(t, "wheel-tick restore", baseRes, restRes, baseBuf.Events, concatEvents(prefix, restBuf.Events))
}

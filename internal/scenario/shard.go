package scenario

import (
	"dftmsn/internal/core"
	"dftmsn/internal/sim"
)

// This file wires the sim.ShardPool into the scenario's three O(N) batch
// phases. The kernel's event dispatch stays single-threaded — the pool is
// only handed the draw-free, side-effect-free part of each phase, and the
// kernel goroutine drains the results sequentially in the exact order the
// sequential kernel produces them. That is the whole determinism argument:
// no RNG draw, scheduler operation, float accumulation, or telemetry
// record moves relative to the sequential kernel, so Results, telemetry
// bytes, and snapshots are bit-identical for every shard count (pinned by
// TestShardedMatchesSequential across the full differential matrix).

// stepWalk advances the mobility walk one tick, fanning the draw-free free
// flight across the pool when sharding is on.
func (s *Sim) stepWalk(dt float64) {
	if s.pool != nil {
		s.walk.StepSharded(dt, s.pool)
		return
	}
	s.walk.Step(dt)
}

// refreshPositions re-files moved radios in the medium's spatial index,
// fanning the cell-key computation across the pool when sharding is on.
func (s *Sim) refreshPositions() {
	if s.pool != nil {
		s.medium.RefreshPositionsSharded(s.pool)
		return
	}
	s.medium.RefreshPositions()
}

// nodeAt maps the canonical poll order — sinks in id order, then sensors —
// to a flat index, so shards can band over one range.
func (s *Sim) nodeAt(i int) *core.Node {
	if i < len(s.sinks) {
		return s.sinks[i]
	}
	return s.sensors[i-len(s.sinks)]
}

// pollCarriersSharded is pollCarriers with the carrier-sense verdicts
// computed in parallel bands. CarrierPending is a pure read (each node's
// own plan flag plus a range query over in-flight frames and
// last-refreshed positions), so shards may evaluate disjoint node bands
// concurrently. Materialization mutates node, scheduler, and telemetry
// state, so it drains sequentially in canonical order; PollCarrier
// re-checks the verdict, and since materializing one node never starts or
// stops a frame nor moves a radio, a drain-time verdict always matches the
// phase-one snapshot — the recheck is belt and braces, not a correctness
// hinge.
func (s *Sim) pollCarriersSharded() {
	total := len(s.sinks) + len(s.sensors)
	if len(s.pollBusy) < total {
		s.pollBusy = make([]bool, total)
	}
	s.pool.Run(func(shard int) {
		lo, hi := sim.Band(total, s.pool.Shards(), shard)
		for i := lo; i < hi; i++ {
			s.pollBusy[i] = s.nodeAt(i).CarrierPending()
		}
	})
	for i := 0; i < total; i++ {
		if s.pollBusy[i] {
			s.nodeAt(i).PollCarrier()
		}
	}
}

// startPool starts the shard workers for a stretch of kernel stepping and
// returns the func that stops them, so callers write defer s.startPool()().
// The workers live only while Run or CheckpointAt executes: a Sim that is
// built (or restored) but never run, or whose construction fails, owns no
// goroutines. Nested calls (Run's own checkpoints) reuse the outer pool.
func (s *Sim) startPool() (stop func()) {
	n := sim.ResolveShards(s.cfg.Shards)
	if n <= 1 || s.pool != nil {
		return func() {}
	}
	s.pool = sim.NewShardPool(n)
	return func() {
		s.pool.Close()
		s.pool = nil
	}
}

package mobility

import "dftmsn/internal/sim"

// pending is StepSharded's per-walker scratch: where a walker's free flight
// stopped, so the sequential drain can resolve its boundary draw and resume
// it. Each walker owns exactly one slot, and the parallel phase writes only
// slots inside its shard's band, so slots never race.
type pending struct {
	remaining float64
	ev        int
	hit       edge
	paused    bool
}

// StepSharded advances every node dt seconds, bit-identically to Step, with
// the draw-free part of the walk spread across the pool's shards.
//
// The walk decomposes cleanly because walkers never interact: a walker's
// trajectory depends only on its own state, pure grid geometry, and the RNG
// draws made at boundaries that lead to a neighbouring zone. Phase one runs
// advanceFree for every walker in parallel bands — free flight plus
// draw-free field-edge reflections — pausing any walker that reaches a
// neighbour boundary. Phase two drains the paused walkers sequentially in
// increasing index order, resolving each boundary (the draws) and resuming
// its flight to completion; that is exactly the order Step consumes the
// mobility stream in, so every draw sees the same stream state and the
// final walker states match Step's bit for bit.
func (w *ZoneWalk) StepSharded(dt float64, pool *sim.ShardPool) {
	if len(w.pend) < len(w.nodes) {
		w.pend = make([]pending, len(w.nodes))
	}
	pool.Run(func(shard int) {
		lo, hi := sim.Band(len(w.nodes), pool.Shards(), shard)
		for i := lo; i < hi; i++ {
			p := &w.pend[i]
			p.remaining, p.ev, p.hit, p.paused = w.advanceFree(&w.nodes[i], dt, 0)
		}
	})
	for i := range w.nodes {
		p := &w.pend[i]
		for p.paused {
			w.crossOrBounce(&w.nodes[i], p.hit)
			p.remaining, p.ev, p.hit, p.paused = w.advanceFree(&w.nodes[i], p.remaining, p.ev+1)
		}
	}
}

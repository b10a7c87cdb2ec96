package radio

import "dftmsn/internal/sim"

// RefreshPositionsSharded is RefreshPositions with the cell-key computation
// fanned across the pool's shards, bit-identical to the sequential refresh.
//
// The split follows the sharded-kernel ownership rule: cellKeyFor is pure
// arithmetic over each radio's position function (a read-only view of the
// already-stepped walk), so workers may compute keys for disjoint index
// bands into keyScratch concurrently. The moves themselves mutate shared
// cell slices, so the kernel goroutine applies them sequentially in attach
// order — the exact order RefreshPositions uses — which preserves each
// cell's membership order and therefore every downstream attach-order
// re-sort, loss draw, and receiver set. A no-op in linear mode.
func (m *Medium) RefreshPositionsSharded(pool *sim.ShardPool) {
	if m.index == nil {
		return
	}
	if len(m.keyScratch) < len(m.radios) {
		m.keyScratch = make([]int64, len(m.radios))
	}
	pool.Run(func(shard int) {
		lo, hi := sim.Band(len(m.radios), pool.Shards(), shard)
		for i := lo; i < hi; i++ {
			m.keyScratch[i] = m.index.cellKeyFor(m.radios[i].position())
		}
	})
	for i, r := range m.radios {
		if key := m.keyScratch[i]; key != r.cellKey {
			m.index.move(r, key)
		}
	}
}

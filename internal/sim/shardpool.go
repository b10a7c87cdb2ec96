package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
)

// ShardPool runs the data-parallel batch phases of a simulation across a
// fixed set of worker goroutines. The kernel itself stays single-threaded —
// every event still fires on the goroutine that calls Scheduler.Run, in
// global (time, seq) order — and the pool is only handed the draw-free,
// provably independent inner loops of O(N) batch work (mobility free
// flight, spatial-index cell-key computation, carrier-sense verdicts).
// Workers write into disjoint per-shard scratch bands; the kernel goroutine
// then drains the scratch sequentially in canonical order, so every RNG
// draw, scheduler operation, and telemetry record happens on the kernel
// goroutine in exactly the sequential kernel's order.
//
// Ownership rule (pinned by TestSchedulerShardStress): the Scheduler,
// Wheel, and pooled event free list belong to the kernel goroutine. Shard
// workers must never call Post, Reschedule, Cancel, or any other scheduler
// method — they compute, the kernel schedules.
type ShardPool struct {
	shards int
	work   []chan func(int)
	done   chan shardResult
	closed bool
}

// shardResult carries one worker's outcome for a Run call back to the
// caller, including a recovered panic if the shard function blew up.
type shardResult struct {
	shard int
	value any
	ok    bool
}

// NewShardPool starts a pool of shards-1 worker goroutines (shard 0 runs on
// the calling goroutine). The workers persist until Close, so per-Run cost
// is two channel hops per worker rather than goroutine creation.
func NewShardPool(shards int) *ShardPool {
	if shards < 1 {
		panic(fmt.Sprintf("sim: shard pool needs at least 1 shard, got %d", shards))
	}
	p := &ShardPool{shards: shards, done: make(chan shardResult, shards-1)}
	for i := 1; i < shards; i++ {
		ch := make(chan func(int))
		p.work = append(p.work, ch)
		go p.worker(i, ch)
	}
	return p
}

func (p *ShardPool) worker(shard int, ch chan func(int)) {
	// The shard label is set once for the goroutine's lifetime, so a CPU
	// profile splits worker time by shard; each phase's closure is its own
	// stack frame, which attributes the time to the phase.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("shard", strconv.Itoa(shard))))
	for fn := range ch {
		p.done <- runShard(fn, shard)
	}
}

func runShard(fn func(int), shard int) (res shardResult) {
	res = shardResult{shard: shard}
	defer func() {
		if v := recover(); v != nil {
			res.value, res.ok = v, false
		}
	}()
	fn(shard)
	res.ok = true
	return res
}

// Shards returns the pool's shard count, including the caller's shard 0.
func (p *ShardPool) Shards() int { return p.shards }

// Run invokes fn(shard) once per shard, concurrently, and returns after all
// shards finish (a full barrier). Shard 0 runs on the calling goroutine.
// fn must confine its writes to state owned by its shard — typically the
// index band Band(n, Shards(), shard) of a scratch slice. If any shard
// panics, Run re-raises the panic of the lowest-numbered panicking shard on
// the caller after the barrier, so failures are deterministic regardless of
// goroutine scheduling. Run on a closed pool panics deterministically
// (without the flag it would silently run only shard 0).
func (p *ShardPool) Run(fn func(shard int)) {
	if p.closed {
		panic("sim: ShardPool.Run after Close")
	}
	for _, ch := range p.work {
		ch <- fn
	}
	first := runShard(fn, 0)
	for range p.work {
		if r := <-p.done; !r.ok && (first.ok || r.shard < first.shard) {
			first = r
		}
	}
	if !first.ok {
		panic(first.value)
	}
}

// Close stops the worker goroutines. Run must not be called after Close —
// it panics if it is. Close is idempotent.
func (p *ShardPool) Close() {
	for _, ch := range p.work {
		close(ch)
	}
	p.work = nil
	p.closed = true
}

// Band returns the half-open index range [lo, hi) that shard owns when n
// items are split contiguously across shards. Bands differ in size by at
// most one and cover [0, n) exactly; shards beyond n receive empty bands.
func Band(n, shards, shard int) (lo, hi int) {
	base, rem := n/shards, n%shards
	lo = shard*base + min(shard, rem)
	hi = lo + base
	if shard < rem {
		hi++
	}
	return lo, hi
}

// ResolveShards maps a Shards configuration value to a concrete shard
// count: 0 (and any negative value a caller failed to validate) means one
// shard per available CPU, values >= 1 pass through unchanged. A resolved
// count of 1 means the sequential kernel runs with no pool at all.
func ResolveShards(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

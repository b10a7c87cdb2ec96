package scenario

import (
	"os"
	"testing"
)

// shardConfig is the sharded-kernel benchmark regime: a sparse DTN at scale.
// Traffic is rare (one message per sensor per 2000 s) and the sleep
// controller keeps nodes dormant, so the run's cost concentrates in the
// O(N) batch phases the shard pool parallelizes — mobility free flight and
// the spatial-index refresh at every 0.5 s tick — rather than in the
// inherently sequential event dispatch. This is the regime the ≥3×
// 8-shard gate (make bench-shard) is asserted in; traffic-heavy regimes
// stay event-loop-bound and are priced by the bench-scale tier instead.
func shardConfig(n int, seconds float64) Config {
	cfg := idleConfig(n, seconds, false)
	// Arrivals are so rare that a whole run sees at most a message or two:
	// this prices the patrol phase of a sparse sensing deployment, where
	// the network spends virtually all of its time moving and listening,
	// not forwarding. A single carrier is disproportionately expensive —
	// its low-power-listening preamble train fires one dispatch-bound
	// event per ~5.5 ms of receiver sleep — so traffic-heavy regimes stay
	// event-loop-bound no matter the shard count; the bench-scale tier
	// prices those. Here the O(N) batch phases dominate instead, which is
	// exactly the work the shard pool spreads across cores.
	cfg.ArrivalMeanSeconds = 10_000_000
	// Fine-grained ticks: 0.02 s resolves contact edges to ~0.1 m at
	// 5 m/s — the contact-precision regime for latency-tail studies, where
	// the instant two trajectories graze the radio range matters. This is
	// deliberately mobility-dominated: ~85% of the run is the free-flight
	// and index-refresh batch phases the pool spreads across cores, and
	// the serial residue is plan/cycle bookkeeping plus node start-up.
	cfg.MobilityTickSeconds = 0.02
	return cfg
}

// benchRunShard is the shard tier: guarded behind DFTMSN_SHARD_BENCH (run
// via `make bench-shard`) because even the sparse regime pays full
// 2000–100k-node runs per iteration, and the speedup ratios it exists to
// assert are only meaningful on a machine with at least 8 CPUs.
func benchRunShard(b *testing.B, n int, seconds float64, shards int) {
	if os.Getenv("DFTMSN_SHARD_BENCH") == "" {
		b.Skip("set DFTMSN_SHARD_BENCH=1 (or use `make bench-shard`) to run the shard tier")
	}
	cfg := shardConfig(n, seconds)
	cfg.Shards = shards
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	// events/run pins that the sharded arm fires exactly the sequential
	// arm's events — a free differential check riding the benchmark.
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// Seq variants are the sequential control arm (Shards=1, the untouched
// kernel); the unsuffixed variants run 8 shards. Durations shrink as n
// grows so every point costs roughly the same wall clock.
func BenchmarkRunSharded2000Seq(b *testing.B) { benchRunShard(b, 2000, 120, 1) }
func BenchmarkRunSharded2000(b *testing.B)    { benchRunShard(b, 2000, 120, 8) }
func BenchmarkRunSharded10kSeq(b *testing.B)  { benchRunShard(b, 10000, 60, 1) }
func BenchmarkRunSharded10k(b *testing.B)     { benchRunShard(b, 10000, 60, 8) }
func BenchmarkRunSharded100kSeq(b *testing.B) { benchRunShard(b, 100000, 20, 1) }
func BenchmarkRunSharded100k(b *testing.B)    { benchRunShard(b, 100000, 20, 8) }

// benchRunShardLowDuty is the low-duty shard point: idleConfig's aggressive
// sleep controller at the default 1 s mobility tick, traffic-free. Here the
// mobility/index batch phases are cheap and the run's cost shifts to the
// sequential work — construction and the idle-span plan builders that fire
// in bursts at quiescent instants — so this point prices the sharded
// kernel where it has the least to parallelize. Construction is timed (New
// inside the timed region, unlike benchRunShard).
func benchRunShardLowDuty(b *testing.B, n int, seconds float64, shards int) {
	if os.Getenv("DFTMSN_SHARD_BENCH") == "" {
		b.Skip("set DFTMSN_SHARD_BENCH=1 (or use `make bench-shard`) to run the shard tier")
	}
	cfg := idleConfig(n, seconds, false)
	cfg.ArrivalMeanSeconds = 10_000_000
	cfg.Shards = shards
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// The 4-shard low-duty pair backing the `make bench-shard` ≥3× gate on
// machines with 4–7 cores (the 8-shard 10k pair gates on ≥8).
func BenchmarkRunShardedLowDuty10kSeq(b *testing.B) { benchRunShardLowDuty(b, 10000, 300, 1) }
func BenchmarkRunShardedLowDuty10k(b *testing.B)    { benchRunShardLowDuty(b, 10000, 300, 4) }

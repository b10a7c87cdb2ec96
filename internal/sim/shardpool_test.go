package sim

import (
	"fmt"
	"sync"
	"testing"
)

func TestBandCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 7, 16, 100, 1001} {
		for shards := 1; shards <= 9; shards++ {
			prev := 0
			for shard := 0; shard < shards; shard++ {
				lo, hi := Band(n, shards, shard)
				if lo != prev {
					t.Fatalf("Band(%d,%d,%d): lo=%d, want %d (bands must tile)", n, shards, shard, lo, prev)
				}
				if hi < lo {
					t.Fatalf("Band(%d,%d,%d): hi=%d < lo=%d", n, shards, shard, hi, lo)
				}
				if size := hi - lo; size != n/shards && size != n/shards+1 {
					t.Fatalf("Band(%d,%d,%d): size %d not within one of %d", n, shards, shard, size, n/shards)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("Band(%d,%d,·): bands end at %d, want %d", n, shards, prev, n)
			}
		}
	}
}

func TestResolveShards(t *testing.T) {
	if got := ResolveShards(3); got != 3 {
		t.Fatalf("ResolveShards(3) = %d, want 3", got)
	}
	if got := ResolveShards(0); got < 1 {
		t.Fatalf("ResolveShards(0) = %d, want >= 1 (GOMAXPROCS)", got)
	}
	if got := ResolveShards(-2); got < 1 {
		t.Fatalf("ResolveShards(-2) = %d, want >= 1", got)
	}
}

func TestShardPoolRunsEveryShardOnce(t *testing.T) {
	const shards = 5
	pool := NewShardPool(shards)
	defer pool.Close()
	if pool.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", pool.Shards(), shards)
	}
	hits := make([]int, shards)
	for round := 0; round < 100; round++ {
		pool.Run(func(shard int) { hits[shard]++ })
	}
	for shard, n := range hits {
		if n != 100 {
			t.Fatalf("shard %d ran %d times, want 100", shard, n)
		}
	}
}

func TestShardPoolSingleShard(t *testing.T) {
	pool := NewShardPool(1)
	defer pool.Close()
	ran := false
	pool.Run(func(shard int) {
		if shard != 0 {
			t.Errorf("single-shard pool ran shard %d", shard)
		}
		ran = true
	})
	if !ran {
		t.Fatal("single-shard pool did not run the function")
	}
}

func TestShardPoolPanicLowestShardWins(t *testing.T) {
	pool := NewShardPool(6)
	defer pool.Close()
	got := func() (v any) {
		defer func() { v = recover() }()
		pool.Run(func(shard int) {
			if shard >= 2 {
				panic(fmt.Sprintf("boom shard %d", shard))
			}
		})
		return nil
	}()
	if got != "boom shard 2" {
		t.Fatalf("Run panicked with %v, want lowest panicking shard (boom shard 2)", got)
	}
	// The pool survives a panicking Run: workers recover and keep serving.
	sum := 0
	pool.Run(func(shard int) {
		if shard == 0 {
			sum = 1
		}
	})
	if sum != 1 {
		t.Fatal("pool unusable after a panicking Run")
	}
}

func TestShardPoolPanicOnCallerShard(t *testing.T) {
	pool := NewShardPool(3)
	defer pool.Close()
	got := func() (v any) {
		defer func() { v = recover() }()
		pool.Run(func(shard int) { panic(fmt.Sprintf("boom shard %d", shard)) })
		return nil
	}()
	if got != "boom shard 0" {
		t.Fatalf("Run panicked with %v, want boom shard 0", got)
	}
}

// TestShardPoolBandFewerItemsThanShards pins Band's behaviour when the pool
// is wider than the work: the first n shards get one item each and the rest
// get empty (lo == hi) bands, so per-band loops simply don't run — no shard
// ever sees an out-of-range index.
func TestShardPoolBandFewerItemsThanShards(t *testing.T) {
	const n, shards = 3, 8
	pool := NewShardPool(shards)
	defer pool.Close()
	hits := make([]int, n)
	empty := 0
	var mu sync.Mutex
	pool.Run(func(shard int) {
		lo, hi := Band(n, shards, shard)
		mu.Lock()
		defer mu.Unlock()
		if lo == hi {
			empty++
			return
		}
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	if empty != shards-n {
		t.Fatalf("%d empty bands, want %d", empty, shards-n)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("item %d covered %d times, want exactly once", i, h)
		}
	}
}

// TestShardPoolMultiPanicNonContiguous pins the re-raise rule when several
// non-adjacent shards panic in one Run: the lowest shard's panic value wins,
// deterministically, regardless of which worker finishes first.
func TestShardPoolMultiPanicNonContiguous(t *testing.T) {
	pool := NewShardPool(6)
	defer pool.Close()
	for round := 0; round < 20; round++ {
		got := func() (v any) {
			defer func() { v = recover() }()
			pool.Run(func(shard int) {
				if shard == 1 || shard == 3 || shard == 5 {
					panic(fmt.Sprintf("boom shard %d", shard))
				}
			})
			return nil
		}()
		if got != "boom shard 1" {
			t.Fatalf("round %d: Run panicked with %v, want boom shard 1", round, got)
		}
	}
}

// TestShardPoolRunAfterClosePanics pins that a Run on a closed pool fails
// loudly and deterministically instead of deadlocking on dead workers.
func TestShardPoolRunAfterClosePanics(t *testing.T) {
	pool := NewShardPool(4)
	pool.Close()
	got := func() (v any) {
		defer func() { v = recover() }()
		pool.Run(func(int) {})
		return nil
	}()
	want := "sim: ShardPool.Run after Close"
	if got != want {
		t.Fatalf("Run after Close panicked with %v, want %q", got, want)
	}
}

// TestSchedulerShardStress pins the ownership rule the sharded kernel relies
// on: shard workers only write disjoint bands of a scratch slice, and the
// Scheduler — including its pooled event free list — is touched exclusively
// by the kernel goroutine, which drains the scratch sequentially after the
// Run barrier. Under -race this fails loudly if bands overlap or a worker
// reaches into kernel state, and the cross-shard-count comparison pins that
// the drain order (hence every Post sequence number) is independent of
// goroutine scheduling.
func TestSchedulerShardStress(t *testing.T) {
	run := func(shards int) (fired, scheduled uint64, sum float64) {
		s := NewScheduler()
		pool := NewShardPool(shards)
		defer pool.Close()
		const n = 256
		scratch := make([]float64, n)
		rounds := 0
		var tick func()
		tick = func() {
			rounds++
			r := rounds
			pool.Run(func(shard int) {
				lo, hi := Band(n, pool.Shards(), shard)
				for i := lo; i < hi; i++ {
					scratch[i] = float64(i*r) * 0.5
				}
			})
			// Kernel-goroutine drain: pooled Post events recycle through the
			// free list every round, exactly how the batch phases feed the
			// scheduler in the sharded scenario kernel.
			for i := 0; i < n; i += 16 {
				v := scratch[i]
				s.Post(0.25, "drain", func() { sum += v })
			}
			if rounds < 64 {
				s.Post(1, "tick", tick)
			}
		}
		s.Post(1, "tick", tick)
		if err := s.Run(Infinity); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return s.Fired(), s.Scheduled(), sum
	}
	f1, s1, sum1 := run(1)
	for _, shards := range []int{2, 4, 8} {
		f, sc, sum := run(shards)
		if f != f1 || sc != s1 || sum != sum1 {
			t.Fatalf("shards=%d diverged: fired %d/%d scheduled %d/%d sum %v/%v",
				shards, f, f1, sc, s1, sum, sum1)
		}
	}
}

// TestWheelShardStress drives a Wheel whose subscribers hand their O(N) body
// to a ShardPool and then Reschedule a handle event from the kernel
// goroutine. It pins that wheel firing order, elision counts, and the
// accumulated drain are bit-identical across shard counts under -race.
func TestWheelShardStress(t *testing.T) {
	run := func(shards int) (fired, elided uint64, total float64) {
		s := NewScheduler()
		w := NewWheel(s, 500)
		pool := NewShardPool(shards)
		defer pool.Close()
		const n = 128
		scratch := make([]float64, n)
		var pulse *Event
		w.Add(1.5, func(now Time) {
			pool.Run(func(shard int) {
				lo, hi := Band(n, pool.Shards(), shard)
				for i := lo; i < hi; i++ {
					scratch[i] = float64(i) * now
				}
			})
			for _, v := range scratch {
				total += v
			}
			pulse = s.Reschedule(pulse, 0.75, "pulse", func() { total += 1 })
		})
		w.Add(2.5, func(now Time) {
			pool.Run(func(shard int) {
				lo, hi := Band(n, pool.Shards(), shard)
				for i := lo; i < hi; i++ {
					scratch[i] = -float64(i) - now
				}
			})
			for _, v := range scratch {
				total += v
			}
		})
		if err := s.Run(500); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return s.Fired(), s.Elided(), total
	}
	f1, e1, t1 := run(1)
	for _, shards := range []int{2, 4, 8} {
		f, e, tot := run(shards)
		if f != f1 || e != e1 || tot != t1 {
			t.Fatalf("shards=%d diverged: fired %d/%d elided %d/%d total %v/%v",
				shards, f, f1, e, e1, tot, t1)
		}
	}
}

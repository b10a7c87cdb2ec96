package scenario

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dftmsn/internal/snapshot"
	"dftmsn/internal/telemetry"
)

// shardDiffCounts are the shard counts the differential suite pins against
// the sequential kernel, per the bench-shard gate: {2, 4, 8}.
var shardDiffCounts = []int{2, 4, 8}

// runForShards runs cfg with the given shard count and a capture buffer.
func runForShards(t *testing.T, cfg Config, shards int) (Result, []telemetry.Event) {
	t.Helper()
	c := cfg
	c.Shards = shards
	buf := &telemetry.Buffer{}
	c.Recorder = buf
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Events
}

// TestShardedMatchesSequential is the end-to-end differential property test
// for the sharded kernel: with Config.Shards as the only difference, the
// whole Result — including the kernel event counters, since the sharded
// kernel fires exactly the same events — and the full typed telemetry
// event stream must be bit-identical to the sequential kernel, across the
// full differential matrix (faults, battery, low-duty, elision regimes)
// and shard counts {2, 4, 8}. Run under -race this also proves the batch
// phases never let a shard worker touch state another shard or the kernel
// goroutine owns.
func TestShardedMatchesSequential(t *testing.T) {
	for name, cfg := range elisionConfigs() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			seqRes, seqEvents := runForShards(t, cfg, 1)
			for _, shards := range shardDiffCounts {
				shrRes, shrEvents := runForShards(t, cfg, shards)
				if !reflect.DeepEqual(seqRes, shrRes) {
					t.Errorf("shards=%d: results diverge:\nsequential: %+v\nsharded:    %+v",
						shards, seqRes, shrRes)
				}
				if len(seqEvents) != len(shrEvents) {
					t.Fatalf("shards=%d: telemetry stream lengths diverge: sequential %d, sharded %d",
						shards, len(seqEvents), len(shrEvents))
				}
				for i := range seqEvents {
					if !reflect.DeepEqual(seqEvents[i], shrEvents[i]) {
						t.Fatalf("shards=%d: telemetry streams diverge at event %d:\nsequential: %s\nsharded:    %s",
							shards, i, eventString(seqEvents[i]), eventString(shrEvents[i]))
					}
				}
			}
		})
	}
}

// TestShardedSnapshotsCanonical pins that snapshots taken by a sharded run
// encode to the exact bytes of the sequential run's snapshots: sharding
// keeps no per-shard state worth snapshotting, so the canonical (sequential)
// layout is the only layout, and a snapshot is portable across shard counts
// by construction.
func TestShardedSnapshotsCanonical(t *testing.T) {
	cfg := differentialConfigs()["opt-plain"]
	cfg.CheckpointEvery = 250
	seqRes, _ := runForShards(t, cfg, 1)
	for _, shards := range shardDiffCounts {
		shrRes, _ := runForShards(t, cfg, shards)
		if len(seqRes.Checkpoints) == 0 || len(seqRes.Checkpoints) != len(shrRes.Checkpoints) {
			t.Fatalf("shards=%d: checkpoint counts diverge: sequential %d, sharded %d",
				shards, len(seqRes.Checkpoints), len(shrRes.Checkpoints))
		}
		for i := range seqRes.Checkpoints {
			a, err := snapshot.EncodeBytes(seqRes.Checkpoints[i])
			if err != nil {
				t.Fatal(err)
			}
			b, err := snapshot.EncodeBytes(shrRes.Checkpoints[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("shards=%d: checkpoint %d encodes to different bytes than sequential", shards, i)
			}
		}
	}
}

// TestEncodeConfigIgnoresShards pins Shards as a runtime-only knob: like
// Cancel, Recorder, and OnProgress it must not appear in the canonical
// config encoding, so shard counts never perturb service cache keys or
// snapshot fingerprints.
func TestEncodeConfigIgnoresShards(t *testing.T) {
	cfg := differentialConfigs()["opt-plain"]
	plain, err := EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8
	sharded, err := EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, sharded) {
		t.Fatalf("EncodeConfig depends on Shards:\nshards=1: %s\nshards=8: %s", plain, sharded)
	}
}

// TestShardPoolNoGoroutineLeak pins the shard pool's lifecycle: workers
// exist only while Run or CheckpointAt steps the kernel. Sims that are
// built and never run, and a Restore that fails after building its Sim,
// must leave no worker goroutines behind, and a run must release its own.
func TestShardPoolNoGoroutineLeak(t *testing.T) {
	cfg := differentialConfigs()["opt-plain"]
	cfg.Shards = 4
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.CheckpointAt(cfg.DurationSeconds / 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(snap, func(c *Config) {
		c.Shards = 4
		c.Telemetry = !c.Telemetry // mismatch: restoreFrom fails after New
	}); err == nil {
		t.Fatal("Restore with a mismatched telemetry setting succeeded")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Closed workers exit asynchronously; give them a moment.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after building, checkpointing, restoring and running at Shards=4, want <= %d", n, base)
	}
}

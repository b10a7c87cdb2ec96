package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"

	"dftmsn/internal/buffer"
	"dftmsn/internal/core"
	"dftmsn/internal/geo"
	"dftmsn/internal/mobility"
	"dftmsn/internal/scenario"
	"dftmsn/internal/sim"
	"dftmsn/internal/simrand"
)

// The sparse patrol point: 100k sensors at the paper's density (one per
// 225 m², 30 m zones), a low-duty sleep controller, no traffic, 1 s ticks.
const (
	sparseSensors = 100_000
	sparseHorizon = 120
)

func sparseZones() int { return int(math.Ceil(math.Sqrt(sparseSensors * 225 / 900))) }

func sparseConfig(seed uint64) scenario.Config {
	rng := rand.New(rand.NewPCG(seed, 0x73706172))
	cfg := scenario.DefaultConfig(core.SchemeOPT)
	cfg.NumSensors = sparseSensors
	cfg.NumSinks = sparseSensors / 100
	cfg.ZonesPerSide = sparseZones()
	cfg.FieldSize = 30 * float64(cfg.ZonesPerSide)
	cfg.DurationSeconds = sparseHorizon
	cfg.ArrivalMeanSeconds = 10_000_000
	p := core.DefaultParams(core.SchemeOPT)
	p.Sleep.TMin = 5
	p.Sleep.L = 12
	cfg.Params = &p
	cfg.Seed = rng.Uint64N(1 << 40)
	cfg.Shards = 0 // one shard per CPU
	return cfg
}

// sparseRep is one build-and-run of the point, its times net of steal, done
// in a child process of its own: a process that reuses a freed 100k-node heap must zero it again,
// which would inflate the resident peak and set-up time of every repeat
// after the first beyond what a user's one run sees.
type sparseRep struct {
	SetupS float64         `json:"setup_s"`
	WallS  float64         `json:"wall_s"`
	RSSMB  float64         `json:"rss_mb"`
	Phase  phase           `json:"phase"`
	Result json.RawMessage `json:"result"`
}

// runSparseRep is the child side: build and run the point once at the given
// shard count and print the report.
func runSparseRep(seed uint64, shards int) error {
	cfg := sparseConfig(seed)
	cfg.Shards = shards
	a := sampleRuntime()
	s, err := scenario.New(cfg)
	if err != nil {
		return err
	}
	b := sampleRuntime()
	res, err := s.Run()
	if err != nil {
		return err
	}
	c := sampleRuntime()
	rep := sparseRep{SetupS: netSeconds(a, b), WallS: netSeconds(b, c), Phase: phaseBetween(a, c)}
	if rep.Result, err = json.Marshal(res); err != nil {
		return err
	}
	rep.RSSMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// sparseChild runs one repeat in a child process and waits for it.
func sparseChild(seed uint64, shards int) (sparseRep, scenario.Result, error) {
	var rep sparseRep
	var res scenario.Result
	exe, err := os.Executable()
	if err != nil {
		return rep, res, err
	}
	cmd := exec.Command(exe, "--workload", "sparse100k", "--seed", strconv.FormatUint(seed, 10), "--rep-shards", strconv.Itoa(shards))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return rep, res, fmt.Errorf("repeat process: %w", err)
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, res, fmt.Errorf("repeat process: %w", err)
	}
	return rep, res, json.Unmarshal(rep.Result, &res)
}

// runSparse builds and runs the 100k-node point, one child process per
// repeat, repeating while another repeat fits in the measured time; it
// times scenario.New and Sim.Run apart. Every repeat must reproduce the
// first Result exactly.
func runSparse(r *run) error {
	cfg := sparseConfig(r.seed)
	var setups, walls, rss []float64
	var first sparseRep
	var res scenario.Result
	start := time.Now()
	last := time.Duration(0)
	for len(walls) == 0 || (!r.trace && time.Since(start)+last <= time.Duration(r.seconds*float64(time.Second))) {
		t0 := time.Now()
		rep, got, err := sparseChild(r.seed, cfg.Shards)
		last = time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			return err
		}
		setups = append(setups, rep.SetupS)
		walls = append(walls, rep.WallS)
		rss = append(rss, rep.RSSMB)
		if len(walls) == 1 {
			first, res = rep, got
		} else if !r.check(bytes.Equal(rep.Result, first.Result), "sparse100k: repeat %d Result differs from the first (nondeterminism)", len(walls)) {
			r.failed++
		}
	}
	r.check(res.Events > 0 && res.EventsElided > 0, "sparse100k: %d events fired, %d elided", res.Events, res.EventsElided)
	r.set("setup_s", median(setups), "s")
	r.set("wall_s", median(walls), "s")
	r.set("rss_peak_mb", median(rss), "MB")
	if !r.trace {
		return nil
	}
	r.setPhase(first.Phase)
	setSimLayers(r, []scenario.Result{res}, first.WallS)
	return traceSparse(r, cfg, first, res)
}

// traceSparse runs the point again in this process with the event hook
// attached, then once more on the sequential kernel (Shards=1) untraced in
// a child; both Results must equal the untraced sharded one. The
// standalone layer probes follow.
func traceSparse(r *run, cfg scenario.Config, untraced sparseRep, want scenario.Result) error {
	tr := newTracer()
	root := tr.begin("sparse100k", -1)
	res, traced, err := tr.tracedRun(cfg, root)
	tr.end(root)
	if err != nil {
		return err
	}
	r.attempted++
	if !r.check(sameResult(res, want), "sparse100k: traced Result differs from untraced") {
		r.failed++
	}
	r.set("sim.trace_overhead_frac", traced/untraced.WallS-1, "ratio")
	setLabelLayers(r, tr)
	if err := tr.write(spanPath("sparse100k")); err != nil {
		return err
	}
	debug.FreeOSMemory() // hand the traced heap back before the child builds its own

	seq, _, err := sparseChild(r.seed, 1)
	r.attempted++
	if err != nil {
		r.failed++
		return err
	}
	if !r.check(bytes.Equal(seq.Result, untraced.Result), "sparse100k: Shards=1 Result differs from Shards=0") {
		r.failed++
	}
	r.set("sim.shard_speedup", seq.WallS/untraced.WallS, "ratio")
	if err := probeMobility(r, cfg.Seed); err != nil {
		return err
	}
	probeQueue(r)
	return nil
}

// probeMobility times the zone walk standalone at the workload's scale:
// construction, then a sequential and a sharded 1 s step per walker.
func probeMobility(r *run, seed uint64) error {
	z := sparseZones()
	grid, err := geo.NewGrid(geo.NewRect(0, 0, 30*float64(z), 30*float64(z)), z, z)
	if err != nil {
		return err
	}
	runtime.GC()
	t0 := time.Now()
	w, err := mobility.NewZoneWalk(grid, sparseSensors, mobility.DefaultZoneWalkConfig(), simrand.New(seed))
	if err != nil {
		return err
	}
	r.set("mobility.new_walk_s", time.Since(t0).Seconds(), "s")
	const steps = 20
	t0 = time.Now()
	for i := 0; i < steps; i++ {
		w.Step(1)
	}
	r.set("mobility.step_ns_per_walker", float64(time.Since(t0).Nanoseconds())/(steps*sparseSensors), "ns")
	pool := sim.NewShardPool(sim.ResolveShards(0))
	defer pool.Close()
	t0 = time.Now()
	for i := 0; i < steps; i++ {
		w.StepSharded(1, pool)
	}
	r.set("mobility.step_sharded_ns_per_walker", float64(time.Since(t0).Nanoseconds())/(steps*sparseSensors), "ns")
	return nil
}

// probeQueue measures the bytes one sensor buffer costs at construction.
func probeQueue(r *run) {
	const n = 1000
	keep := make([]*buffer.Queue, 0, n)
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		q, _ := buffer.NewQueue(200, 0.95)
		keep = append(keep, q)
	}
	runtime.ReadMemStats(&b)
	r.set("buffer.new_queue_bytes", float64(b.TotalAlloc-a.TotalAlloc)/n, "bytes")
	runtime.KeepAlive(keep)
}

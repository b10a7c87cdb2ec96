package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"dftmsn/internal/scenario"
	"dftmsn/internal/sweep"
)

// Fig. 2 at the paper's default 3 sinks and 100 sensors: the four variants,
// fig2Runs seeds each, over a horizon short enough that about six
// experiments fit in one measured run, so their median holds up against a
// noisy host; the paper's orderings still hold at this horizon.
const (
	fig2Horizon = 1500
	fig2Runs    = 2
	fig2Sinks   = 3
)

func fig2Experiment(seed uint64) (sweep.Experiment, error) {
	rng := rand.New(rand.NewPCG(seed, 0x46696732))
	exp, err := sweep.Fig2(sweep.Options{
		DurationSeconds: fig2Horizon,
		Runs:            fig2Runs,
		Sensors:         100,
		BaseSeed:        rng.Uint64N(1 << 40),
	})
	exp.Xs = []float64{fig2Sinks}
	return exp, err
}

// runFig2 times Experiment.Run on all cores, repeating while another
// repeat fits in the measured time; wall_s is the median net time. Every
// repeat must reproduce the first table exactly.
func runFig2(r *run) error {
	exp, err := fig2Experiment(r.seed)
	if err != nil {
		return err
	}
	var walls, raw, rss []float64
	var first []byte
	var table *sweep.Table
	var rt0, rt1 rtSample
	start := time.Now()
	for len(walls) == 0 || (!r.trace && time.Since(start).Seconds()+raw[len(raw)-1] <= r.seconds) {
		peaks := resetPeakRSS()
		rt0 = sampleRuntime()
		tab, err := exp.Run(0)
		rt1 = sampleRuntime()
		if peaks {
			rss = append(rss, peakRSSMB())
		}
		r.attempted++
		if err != nil {
			r.failed++
			return err
		}
		walls = append(walls, netSeconds(rt0, rt1))
		raw = append(raw, rt1.wall.Sub(rt0.wall).Seconds())
		js, err := tab.JSON()
		if err != nil {
			return err
		}
		if first == nil {
			first, table = js, tab
		} else if !r.check(bytes.Equal(js, first), "fig2: repeat %d table differs from the first (nondeterminism)", len(walls)) {
			r.failed++
		}
	}
	r.set("wall_s", median(walls), "s")
	if len(rss) == len(walls) {
		// The median repeat's peak: how far the heap overshoots between
		// GC cycles varies from one repeat to the next.
		r.set("rss_peak_mb", median(rss), "MB")
	}
	checkFig2(r, table)

	// Construction alone: every job's scenario.New, 200 times over. Each
	// job's median construction time filters out the constructions a GC
	// cycle landed in; setup_s is their sum, one experiment's worth, net of
	// the steal measured across the whole loop.
	cfgs, err := fig2Configs(exp)
	if err != nil {
		return err
	}
	perJob := make([][]float64, len(cfgs))
	g0 := sampleRuntime()
	for i := 0; i < 200; i++ {
		for j, cfg := range cfgs {
			t0 := time.Now()
			if _, err := scenario.New(cfg); err != nil {
				return err
			}
			perJob[j] = append(perJob[j], time.Since(t0).Seconds())
		}
	}
	setup := 0.0
	for _, ts := range perJob {
		setup += median(ts)
	}
	setup *= netFactor(g0, sampleRuntime())
	r.set("setup_s", setup, "s")

	if !r.trace {
		return nil
	}
	r.setPhase(phaseBetween(rt0, rt1))
	return traceFig2(r, exp, cfgs, table, walls[0])
}

// fig2Configs lists the experiment's jobs in Experiment.Run's job order
// (variant-major, then run), with the seeds Run gives them.
func fig2Configs(exp sweep.Experiment) ([]scenario.Config, error) {
	var cfgs []scenario.Config
	for _, v := range exp.Variants {
		for _, x := range exp.Xs {
			for run := 0; run < exp.Runs; run++ {
				cfg, err := v.Build(x)
				if err != nil {
					return nil, err
				}
				cfg.Seed = exp.BaseSeed + uint64(run)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// checkFig2 holds the table to the paper's Fig. 2 orderings: power rises
// OPT < NOOPT < NOSLEEP with NOSLEEP at least 5x OPT, and OPT delivers a
// larger share than NOOPT and ZBR.
func checkFig2(r *run, t *sweep.Table) {
	cell := map[string]*sweep.Point{}
	for vi, name := range t.Variants {
		cell[name] = t.Cell(vi, 0)
	}
	for _, name := range []string{"OPT", "NOOPT", "NOSLEEP", "ZBR"} {
		if !r.check(cell[name] != nil, "fig2: variant %s missing", name) {
			return
		}
	}
	p := func(name string) float64 { return cell[name].PowerMW.Mean() }
	d := func(name string) float64 { return cell[name].DeliveryRatio.Mean() }
	r.check(p("OPT") < p("NOOPT") && p("NOOPT") < p("NOSLEEP"),
		"fig2: power not ordered OPT < NOOPT < NOSLEEP (%.3f, %.3f, %.3f mW)", p("OPT"), p("NOOPT"), p("NOSLEEP"))
	r.check(p("NOSLEEP") >= 5*p("OPT"), "fig2: NOSLEEP/OPT power %.2f, want >= 5", p("NOSLEEP")/p("OPT"))
	r.check(d("OPT") > d("NOOPT") && d("OPT") > d("ZBR"),
		"fig2: OPT delivery %.4f not above NOOPT %.4f and ZBR %.4f", d("OPT"), d("NOOPT"), d("ZBR"))
}

// traceFig2 re-runs the experiment's jobs on all cores with the event hook
// attached and requires each variant's aggregate to equal the untraced
// table's bit for bit.
func traceFig2(r *run, exp sweep.Experiment, cfgs []scenario.Config, table *sweep.Table, untraced float64) error {
	tr := newTracer()
	root := tr.begin("fig2", -1)
	results := make([]scenario.Result, len(cfgs))
	t0 := sampleRuntime()
	err := sweep.Parallel(len(cfgs), 0, func(i int) error {
		res, _, err := tr.tracedRun(cfgs[i], root)
		results[i] = res
		return err
	})
	traced := netSeconds(t0, sampleRuntime())
	tr.end(root)
	if err != nil {
		return err
	}
	for vi, v := range exp.Variants {
		var got sweep.Point
		for run := 0; run < exp.Runs; run++ {
			addPoint(&got, results[vi*exp.Runs+run])
		}
		if err := samePoint(&got, table.Cell(vi, 0)); err != nil {
			r.failed++
			r.check(false, "fig2: traced %s differs from untraced: %v", v.Name, err)
		}
	}
	r.set("sim.trace_overhead_frac", traced/untraced-1, "ratio")
	setSimLayers(r, results, untraced)
	setLabelLayers(r, tr)
	return tr.write(spanPath("fig2"))
}

// addPoint folds the fields samePoint compares the way sweep folds runs.
func addPoint(p *sweep.Point, res scenario.Result) {
	p.DeliveryRatio.Add(res.Delivery.DeliveryRatio)
	p.PowerMW.Add(res.AvgSensorPowerMW)
	p.DelaySeconds.Add(res.Delivery.AvgDelaySeconds)
	p.Collisions.Add(float64(res.Channel.Collisions))
	p.Drops.Add(float64(res.DropsFull + res.DropsThreshold))
	p.CtrlBitsPerMsg.Add(res.ControlBitsPerDelivered)
	p.DeliveredCount.Add(float64(res.Delivery.Delivered))
	p.GeneratedCount.Add(float64(res.Delivery.Generated))
}

func samePoint(a, b *sweep.Point) error {
	pairs := []struct {
		name string
		x, y *sweep.Stats
	}{
		{"delivery ratio", &a.DeliveryRatio, &b.DeliveryRatio},
		{"power", &a.PowerMW, &b.PowerMW},
		{"delay", &a.DelaySeconds, &b.DelaySeconds},
		{"collisions", &a.Collisions, &b.Collisions},
		{"drops", &a.Drops, &b.Drops},
		{"control bits", &a.CtrlBitsPerMsg, &b.CtrlBitsPerMsg},
		{"delivered", &a.DeliveredCount, &b.DeliveredCount},
		{"generated", &a.GeneratedCount, &b.GeneratedCount},
	}
	for _, p := range pairs {
		if p.x.Mean() != p.y.Mean() || p.x.N() != p.y.N() {
			return fmt.Errorf("%s %v vs %v", p.name, p.x.Mean(), p.y.Mean())
		}
	}
	return nil
}

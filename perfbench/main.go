// Command perfbench is dftmsn's end-to-end benchmark. One invocation runs
// one named workload, checks its outputs, and prints one JSON result line
// last on standard output:
//
//	perfbench --workload fig2|sparse100k|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing attached. With --trace 1 a separate traced pass runs too and
// the result carries the per-layer metrics instead. README.md says why each
// workload exists and which layers it exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one workload invocation's shared state: its settings, the metrics
// it reports, and the output checks it has failed.
type run struct {
	seed    uint64
	seconds float64
	trace   bool
	dir     string // scratch directory inside the checkout

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func (r *run) set(name string, value float64, unit string) {
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// check records a failed output check; it reports whether ok held.
func (r *run) check(ok bool, format string, args ...any) bool {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

var workloads = map[string]func(*run) error{
	"fig2":       runFig2,
	"sparse100k": runSparse,
	"serve":      runServe,
}

// declared reads the metric names BENCHMARK.json declares for a mode, with
// their units: the end-to-end metrics, or with trace the per-layer ones.
// Every workload reports every declared name, 0 where it does not exercise
// that layer.
func declared(trace bool) (map[string]string, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	want := map[string]string{}
	for _, d := range list {
		want[d.Name] = d.Unit
	}
	return want, nil
}

func main() {
	workload := flag.String("workload", "", "workload to run: fig2, sparse100k or serve")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	repShards := flag.Int("rep-shards", -1, "internal: run one sparse100k repeat at this shard count and print its report")
	flag.Parse()
	if *repShards >= 0 {
		if err := runSparseRep(*seed, *repShards); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload fig2|sparse100k|serve [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir, metrics: map[string]metric{}}

	want, err := declared(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host, err := hostFacts(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.set("host.fsync_us", host.FsyncUS, "us")
	start, steal0 := time.Now(), stealSeconds()
	if err := fn(r); err != nil {
		r.check(false, "%s: %v", *workload, err)
	}
	// The share of CPU time the hypervisor took during the run: a high
	// reading marks a run whose timings the host, not the program, slowed.
	stealFrac := (stealSeconds() - steal0) / (time.Since(start).Seconds() * float64(runtime.NumCPU()))
	if r.attempted < 1 {
		r.attempted = 1
	}
	if _, ok := r.metrics["rss_peak_mb"]; !ok {
		r.set("rss_peak_mb", peakRSSMB(), "MB")
	}

	out := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			m = metric{Unit: want[name]}
		}
		r.check(m.Unit == want[name], "%s is measured in %s, BENCHMARK.json says %s", name, m.Unit, want[name])
		out.Metrics[name] = m
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	out.Correct = len(r.problems) == 0
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	hb, _ := json.Marshal(map[string]any{"workload": *workload, "seed": *seed, "host": host, "steal_frac": stealFrac})
	fmt.Println(string(hb))
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	if !out.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

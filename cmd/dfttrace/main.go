// Command dfttrace runs a short DFT-MSN simulation with structured event
// tracing and writes the trace as tab-separated records (virtual time,
// node, event, detail) — useful for inspecting the protocol exchange
// sequence and debugging parameter choices.
//
// Usage:
//
//	dfttrace [-scheme OPT] [-sensors 20] [-sinks 2] [-duration 300]
//	         [-seed 1] [-max 20000] [-out -]
//	dfttrace -read FILE
//
// -read summarises an existing trace file instead of simulating. The
// encoding is auto-detected: legacy tab-separated traces (this command's
// own output) and both trace-v2 encodings (JSONL and binary, as written
// by dftsim -trace) are accepted.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"dftmsn"
	"dftmsn/internal/telemetry"
	"dftmsn/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dfttrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dfttrace", flag.ContinueOnError)
	var (
		schemeName = fs.String("scheme", "OPT", "protocol variant")
		sensors    = fs.Int("sensors", 20, "number of sensors")
		sinks      = fs.Int("sinks", 2, "number of sinks")
		duration   = fs.Float64("duration", 300, "simulated seconds")
		seed       = fs.Uint64("seed", 1, "random seed")
		maxEvents  = fs.Uint64("max", 20_000, "trace event cap (0 = unlimited)")
		outPath    = fs.String("out", "-", "output file (- for stdout)")
		summary    = fs.Bool("summary", false, "print per-event-type counts to stderr")
		readPath   = fs.String("read", "", "summarise an existing trace file (legacy TSV or trace v2) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *readPath != "" {
		return summarizeFile(*readPath, stdout)
	}
	scheme, err := dftmsn.ParseScheme(*schemeName)
	if err != nil {
		return err
	}

	dst := stdout
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		dst = f
	}
	var buf *bytes.Buffer
	if *summary {
		// Capture a copy so the trace can be summarised after the run.
		buf = &bytes.Buffer{}
		dst = io.MultiWriter(dst, buf)
	}
	tracer := trace.NewWriter(dst, *maxEvents)

	cfg := dftmsn.DefaultConfig(scheme)
	cfg.NumSensors = *sensors
	cfg.NumSinks = *sinks
	cfg.DurationSeconds = *duration
	cfg.Seed = *seed
	cfg.Recorder = telemetry.NewLegacyAdapter(tracer)

	res, err := dftmsn.Run(cfg)
	if err != nil {
		return err
	}
	if err := tracer.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dfttrace: %d events traced; delivery ratio %.3f over %.0f s\n",
		tracer.Events(), res.Delivery.DeliveryRatio, res.SimSeconds)
	if buf != nil {
		recs, err := trace.Parse(buf)
		if err != nil {
			return err
		}
		fmt.Fprint(stderr, trace.Summarize(recs).Format())
	}
	return nil
}

// summarizeFile prints a per-event-type summary of a trace file,
// auto-detecting the encoding: trace v2 (JSONL or binary) by its header,
// anything else parsed as the legacy tab-separated format.
func summarizeFile(path string, out io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	format, err := telemetry.DetectFormat(br)
	if err != nil {
		// Not trace v2; DetectFormat only peeked, so the legacy parser
		// still sees the whole stream.
		recs, perr := trace.Parse(br)
		if perr != nil {
			return fmt.Errorf("neither trace v2 (%v) nor legacy TSV (%v)", err, perr)
		}
		fmt.Fprint(out, "legacy trace: ", trace.Summarize(recs).Format())
		return nil
	}
	events, err := telemetry.ReadAll(br)
	if err != nil {
		return err
	}
	var span [2]float64
	counts := make(map[telemetry.EventType]int)
	for i, ev := range events {
		counts[ev.Type]++
		if i == 0 || ev.Time < span[0] {
			span[0] = ev.Time
		}
		if ev.Time > span[1] {
			span[1] = ev.Time
		}
	}
	fmt.Fprintf(out, "trace v2 (%s): %d events over [%.3f, %.3f] s\n",
		format, len(events), span[0], span[1])
	for _, typ := range telemetry.EventTypes() {
		if n := counts[typ]; n > 0 {
			fmt.Fprintf(out, "  %-12s %d\n", typ, n)
		}
	}
	ledger := telemetry.BuildLedger(events)
	status := make(map[string]int)
	for _, id := range ledger.IDs() {
		status[ledger.Message(id).Status()]++
	}
	fmt.Fprintf(out, "messages: %d tracked, %d delivered, %d dropped, %d rejected, %d in-flight\n",
		ledger.Len(), status["delivered"], status["dropped"], status["rejected"], status["in-flight"])
	return nil
}

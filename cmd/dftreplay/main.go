// Command dftreplay analyses a frame-capture file: it either dumps the
// captured frames as text or summarises the exchange structure (frame
// counts per kind, per-node activity, exchange round-trips).
//
// Produce a capture with:
//
//	dftreplay -record capture.bin -scheme OPT -sensors 20 -duration 300
//
// then inspect it:
//
//	dftreplay -in capture.bin -summary
//	dftreplay -in capture.bin | head
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dftmsn"
	"dftmsn/internal/packet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dftreplay:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dftreplay", flag.ContinueOnError)
	var (
		inPath     = fs.String("in", "", "capture file to analyse")
		record     = fs.String("record", "", "run a simulation and write a capture file")
		schemeName = fs.String("scheme", "OPT", "protocol variant for -record")
		sensors    = fs.Int("sensors", 20, "sensors for -record")
		sinks      = fs.Int("sinks", 2, "sinks for -record")
		duration   = fs.Float64("duration", 300, "simulated seconds for -record")
		seed       = fs.Uint64("seed", 1, "random seed for -record")
		summary    = fs.Bool("summary", false, "summarise instead of dumping frames")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *record != "":
		return doRecord(*record, *schemeName, *sensors, *sinks, *duration, *seed, stderr)
	case *inPath != "":
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		return analyse(f, stdout, *summary)
	default:
		return fmt.Errorf("pass -record FILE to capture or -in FILE to analyse")
	}
}

func doRecord(path, schemeName string, sensors, sinks int, duration float64, seed uint64, stderr io.Writer) (err error) {
	scheme, err := dftmsn.ParseScheme(schemeName)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	cfg := dftmsn.DefaultConfig(scheme)
	cfg.NumSensors = sensors
	cfg.NumSinks = sinks
	cfg.DurationSeconds = duration
	cfg.Seed = seed
	cfg.FrameCapture = f
	res, err := dftmsn.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "dftreplay: captured %d frames over %.0f s (ratio %.3f) to %s\n",
		res.Channel.FramesSent[packet.KindPreamble]+
			res.Channel.FramesSent[packet.KindRTS]+
			res.Channel.FramesSent[packet.KindCTS]+
			res.Channel.FramesSent[packet.KindSchedule]+
			res.Channel.FramesSent[packet.KindData]+
			res.Channel.FramesSent[packet.KindAck],
		res.SimSeconds, res.Delivery.DeliveryRatio, path)
	return nil
}

func analyse(r io.Reader, out io.Writer, summarise bool) error {
	recs, err := packet.NewCaptureReader(r).ReadAll()
	if err != nil {
		return err
	}
	if !summarise {
		for _, rec := range recs {
			fmt.Fprintf(out, "%.6f\t%d\t%s\t%s\n", rec.Time, rec.Src, rec.Frame.Kind(), describe(rec.Frame))
		}
		return nil
	}

	kinds := map[packet.Kind]int{}
	perNode := map[packet.NodeID]int{}
	exchanges := 0
	delivered := map[packet.MessageID]bool{}
	for _, rec := range recs {
		kinds[rec.Frame.Kind()]++
		perNode[rec.Src]++
		switch fr := rec.Frame.(type) {
		case *packet.Schedule:
			exchanges++
		case *packet.Data:
			delivered[fr.ID] = true
		}
	}
	span := 0.0
	if len(recs) > 0 {
		span = recs[len(recs)-1].Time - recs[0].Time
	}
	fmt.Fprintf(out, "%d frames from %d nodes over %.1f s\n", len(recs), len(perNode), span)
	for k := packet.KindPreamble; k <= packet.KindAck; k++ {
		fmt.Fprintf(out, "  %-9s %d\n", k, kinds[k])
	}
	fmt.Fprintf(out, "data exchanges (schedules) %d, distinct messages on air %d\n", exchanges, len(delivered))
	if kinds[packet.KindRTS] > 0 {
		fmt.Fprintf(out, "exchange yield: %.1f%% of RTS led to a SCHEDULE\n",
			100*float64(exchanges)/float64(kinds[packet.KindRTS]))
	}
	// Busiest transmitters.
	type nodeCount struct {
		node  packet.NodeID
		count int
	}
	busy := make([]nodeCount, 0, len(perNode))
	for n, c := range perNode {
		busy = append(busy, nodeCount{n, c})
	}
	sort.Slice(busy, func(i, j int) bool {
		if busy[i].count != busy[j].count {
			return busy[i].count > busy[j].count
		}
		return busy[i].node < busy[j].node
	})
	top := busy
	if len(top) > 5 {
		top = top[:5]
	}
	parts := make([]string, 0, len(top))
	for _, nc := range top {
		parts = append(parts, fmt.Sprintf("%d(%d)", nc.node, nc.count))
	}
	fmt.Fprintf(out, "busiest transmitters: %s\n", strings.Join(parts, " "))
	return nil
}

func describe(f packet.Frame) string {
	switch fr := f.(type) {
	case *packet.RTS:
		return fmt.Sprintf("xi=%.3f ftd=%.3f W=%d", fr.Xi, fr.FTD, fr.Window)
	case *packet.CTS:
		return fmt.Sprintf("to=%d xi=%.3f buf=%d", fr.To, fr.Xi, fr.BufferAvail)
	case *packet.Schedule:
		return fmt.Sprintf("receivers=%d", len(fr.Entries))
	case *packet.Data:
		return fmt.Sprintf("msg=%d origin=%d hops=%d", fr.ID, fr.Origin, fr.Hops)
	case *packet.Ack:
		return fmt.Sprintf("to=%d msg=%d", fr.To, fr.ID)
	default:
		return ""
	}
}

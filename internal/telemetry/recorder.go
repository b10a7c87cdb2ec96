package telemetry

import (
	"fmt"

	"dftmsn/internal/trace"
)

// Recorder receives typed simulation events. Implementations must not
// panic; tracing never aborts a run. Recorders used by a single simulation
// are called from one goroutine (the kernel's); the file-backed recorders
// are additionally safe for concurrent use so parallel sweep runs may share
// one for coarse debugging.
type Recorder interface {
	Record(ev Event)
}

// Nop discards all events. It is the default recorder everywhere; the
// Record call is allocation-free (guarded by a benchmark and an allocation
// test), so untraced runs pay nothing for the telemetry layer.
type Nop struct{}

var _ Recorder = Nop{}

// Record implements Recorder by doing nothing.
func (Nop) Record(Event) {}

// Multi fans every event out to several recorders in order.
type Multi []Recorder

var _ Recorder = Multi(nil)

// Record implements Recorder.
func (m Multi) Record(ev Event) {
	for _, r := range m {
		r.Record(ev)
	}
}

// Combine composes recorders, skipping nils: none yields Nop, one is
// returned unwrapped, several become a Multi.
func Combine(recs ...Recorder) Recorder {
	out := make(Multi, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return Nop{}
	case 1:
		return out[0]
	default:
		return out
	}
}

// Buffer collects events in memory — for tests and tools that post-process
// a single short run.
type Buffer struct {
	Events []Event
}

var _ Recorder = (*Buffer)(nil)

// Record implements Recorder.
func (b *Buffer) Record(ev Event) { b.Events = append(b.Events, ev) }

// LegacyAdapter renders typed events as the legacy free-form trace lines
// (internal/trace), so a trace.Writer attached to a run produces exactly
// the tab-separated output it always did. Event types the legacy format
// never carried (cts, ack, drop, deliver, ftd-update) are skipped, keeping
// legacy traces byte-compatible.
type LegacyAdapter struct {
	t trace.Tracer
}

var _ Recorder = (*LegacyAdapter)(nil)

// NewLegacyAdapter wraps a legacy tracer.
func NewLegacyAdapter(t trace.Tracer) *LegacyAdapter {
	return &LegacyAdapter{t: t}
}

// Record implements Recorder by emitting the historical (event, detail)
// string pair for the event types the legacy format defined.
func (a *LegacyAdapter) Record(ev Event) {
	switch ev.Type {
	case EvGen:
		a.t.Emit(ev.Time, ev.Node, "gen", fmt.Sprintf("msg=%d", ev.Msg))
	case EvGenDrop:
		a.t.Emit(ev.Time, ev.Node, "gen-drop", fmt.Sprintf("msg=%d", ev.Msg))
	case EvTx:
		a.t.Emit(ev.Time, ev.Node, "schedule", fmt.Sprintf("msg=%d receivers=%d", ev.Msg, ev.Count))
	case EvRx:
		a.t.Emit(ev.Time, ev.Node, "rx-data",
			fmt.Sprintf("msg=%d from=%d ftd=%.3f kept=%v", ev.Msg, ev.Peer, ev.FTD, ev.Kept))
	case EvTxOutcome:
		a.t.Emit(ev.Time, ev.Node, "tx-outcome", fmt.Sprintf("scheduled=%d acked=%d", ev.Count, ev.Aux))
	case EvSleep:
		a.t.Emit(ev.Time, ev.Node, "sleep", fmt.Sprintf("dur=%.3f", ev.Value))
	case EvWake:
		a.t.Emit(ev.Time, ev.Node, "wake", "")
	case EvCrash:
		a.t.Emit(ev.Time, ev.Node, "crash", fmt.Sprintf("lost=%d", ev.Count))
	case EvReboot:
		a.t.Emit(ev.Time, ev.Node, "recover", "")
	case EvKill:
		a.t.Emit(ev.Time, ev.Node, "killed", "")
	case EvDied:
		a.t.Emit(ev.Time, ev.Node, "died", fmt.Sprintf("joules=%.3f", ev.Value))
	}
}

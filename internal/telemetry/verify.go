package telemetry

import (
	"fmt"
	"math"
	"strings"

	"dftmsn/internal/packet"
)

// Violation is one protocol-invariant breach found in an event stream.
type Violation struct {
	Event  Event
	Reason string
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f node=%d %s: %s", v.Event.Time, v.Event.Node, v.Event.Type, v.Reason)
}

// verified is the allow-list of event types Verify checks. EvDrop,
// EvDeliver and EvFTDUpdate stay off it: they are bookkeeping about copies,
// not node activity, and a crash records its DropCrash drops after the
// node's EvCrash, so "event while crashed" would flag every one of them.
var verified = [numEventTypes]bool{
	EvGen: true, EvGenDrop: true,
	EvTx: true, EvRx: true, EvTxOutcome: true, EvCTS: true, EvAck: true,
	EvSleep: true, EvWake: true,
	EvCrash: true, EvReboot: true, EvKill: true, EvDied: true,
}

// Verify checks protocol invariants over a run's typed event stream:
//
//  1. events are globally time-ordered (the kernel records in virtual-time
//     order); rules 2-6 look only at the allow-listed types;
//  2. sleep/wake alternate per node — no double sleep, no wake without a
//     preceding sleep;
//  3. a sleeping node neither receives data, multicasts, answers with a
//     CTS or ACK, nor closes an ACK window (radio is off);
//  4. EvDied/EvKill is terminal — no further events from that node;
//  5. EvCrash silences a node until its EvReboot (fault injection), and
//     EvReboot only follows a crash; the reboot re-enters the cycle loop
//     through an EvWake that needs no preceding EvSleep;
//  6. between EvReboot and that boot wake the node is still booting: it
//     neither touches the radio (no tx, rx, cts, ack or tx-outcome) nor
//     goes to sleep.
//
// It returns all violations found (empty for a conformant stream).
func Verify(events []Event) []Violation {
	var out []Violation
	type nodeState struct {
		asleep    bool
		dead      bool
		crashed   bool
		rebooting bool // recovered; the boot wake is pending
	}
	states := make(map[packet.NodeID]*nodeState)
	lastTime := math.Inf(-1)
	for _, ev := range events {
		if ev.Time < lastTime {
			out = append(out, Violation{ev, fmt.Sprintf("time went backwards (%.6f after %.6f)", ev.Time, lastTime)})
		}
		lastTime = ev.Time
		if ev.Type >= numEventTypes || !verified[ev.Type] {
			continue
		}
		st := states[ev.Node]
		if st == nil {
			st = &nodeState{}
			states[ev.Node] = st
		}
		if st.dead {
			out = append(out, Violation{ev, "event after death"})
			continue
		}
		if st.crashed && ev.Type != EvReboot {
			out = append(out, Violation{ev, "event while crashed"})
			continue
		}
		switch ev.Type {
		case EvSleep:
			if st.asleep {
				out = append(out, Violation{ev, "sleep while already asleep"})
			}
			if st.rebooting {
				out = append(out, Violation{ev, "sleep before the boot wake"})
			}
			st.asleep = true
			st.rebooting = false
		case EvWake:
			if !st.asleep && !st.rebooting {
				out = append(out, Violation{ev, "wake without preceding sleep"})
			}
			st.asleep = false
			st.rebooting = false
		case EvTx, EvRx, EvTxOutcome, EvCTS, EvAck:
			if st.asleep {
				out = append(out, Violation{ev, "radio activity while asleep"})
			}
			if st.rebooting {
				out = append(out, Violation{ev, "radio activity before boot wake"})
			}
		case EvDied, EvKill:
			st.dead = true
		case EvCrash:
			st.crashed = true
		case EvReboot:
			if !st.crashed {
				out = append(out, Violation{ev, "reboot of a node that was not crashed"})
			}
			st.crashed = false
			st.rebooting = true
		case EvGen, EvGenDrop:
			// Sensing is independent of the radio; allowed while asleep.
		}
	}
	return out
}

// FormatViolations renders violations one per line (empty string if none).
func FormatViolations(vs []Violation) string {
	if len(vs) == 0 {
		return ""
	}
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

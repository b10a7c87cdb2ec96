package telemetry

import (
	"strings"
	"testing"
)

func TestVerifyCleanTrace(t *testing.T) {
	events := []Event{
		{Time: 1, Node: 1, Type: EvGen},
		{Time: 2, Node: 1, Type: EvTx},
		{Time: 2.05, Node: 2, Type: EvCTS},
		{Time: 2.1, Node: 2, Type: EvRx},
		{Time: 2.15, Node: 2, Type: EvAck},
		{Time: 2.2, Node: 1, Type: EvTxOutcome},
		{Time: 3, Node: 1, Type: EvSleep},
		{Time: 4, Node: 1, Type: EvGen}, // sensing while asleep is fine
		{Time: 6, Node: 1, Type: EvWake},
		{Time: 7, Node: 1, Type: EvSleep},
		{Time: 8, Node: 1, Type: EvDied},
	}
	if vs := Verify(events); len(vs) != 0 {
		t.Fatalf("clean trace produced violations:\n%s", FormatViolations(vs))
	}
}

func TestVerifyCatchesDoubleSleep(t *testing.T) {
	events := []Event{
		{Time: 1, Node: 1, Type: EvSleep},
		{Time: 2, Node: 1, Type: EvSleep},
	}
	vs := Verify(events)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "already asleep") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestVerifyCatchesWakeWithoutSleep(t *testing.T) {
	vs := Verify([]Event{{Time: 1, Node: 1, Type: EvWake}})
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "without preceding sleep") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestVerifyCatchesActivityWhileAsleep(t *testing.T) {
	for _, typ := range []EventType{EvTx, EvRx, EvTxOutcome, EvCTS, EvAck} {
		events := []Event{
			{Time: 1, Node: 1, Type: EvSleep},
			{Time: 2, Node: 1, Type: typ},
		}
		vs := Verify(events)
		if len(vs) != 1 || !strings.Contains(vs[0].Reason, "while asleep") {
			t.Fatalf("%s: violations = %v", typ, vs)
		}
	}
}

func TestVerifyCatchesEventsAfterDeath(t *testing.T) {
	for _, typ := range []EventType{EvKill, EvDied} {
		events := []Event{
			{Time: 1, Node: 1, Type: typ},
			{Time: 2, Node: 1, Type: EvRx},
			{Time: 3, Node: 2, Type: EvGen}, // other nodes unaffected
		}
		vs := Verify(events)
		if len(vs) != 1 || !strings.Contains(vs[0].Reason, "after death") {
			t.Fatalf("%s: violations = %v", typ, vs)
		}
	}
}

func TestVerifyAllowsCrashRecoverCycle(t *testing.T) {
	events := []Event{
		{Time: 1, Node: 1, Type: EvGen, Msg: 7},
		{Time: 2, Node: 1, Type: EvCrash, Count: 1},
		{Time: 2, Node: 1, Type: EvDrop, Msg: 7, Aux: DropCrash}, // recorded after the crash
		{Time: 3, Node: 1, Type: EvReboot},
		{Time: 3.1, Node: 1, Type: EvWake}, // reboot wake needs no sleep
		{Time: 4, Node: 1, Type: EvSleep},
		{Time: 4.5, Node: 1, Type: EvCrash}, // crash while asleep
		{Time: 5, Node: 1, Type: EvReboot},
		{Time: 5.1, Node: 1, Type: EvWake},
		{Time: 6, Node: 1, Type: EvRx},
	}
	if vs := Verify(events); len(vs) != 0 {
		t.Fatalf("churn trace produced violations:\n%s", FormatViolations(vs))
	}
}

func TestVerifyCatchesEventsWhileCrashed(t *testing.T) {
	events := []Event{
		{Time: 1, Node: 1, Type: EvCrash},
		{Time: 2, Node: 1, Type: EvRx},
		{Time: 3, Node: 2, Type: EvGen}, // other nodes unaffected
	}
	vs := Verify(events)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "while crashed") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestVerifyCatchesRadioActivityWhileRebooting(t *testing.T) {
	for _, typ := range []EventType{EvTx, EvRx, EvTxOutcome, EvCTS, EvAck} {
		events := []Event{
			{Time: 1, Node: 1, Type: EvCrash},
			{Time: 2, Node: 1, Type: EvReboot},
			{Time: 2.5, Node: 1, Type: typ}, // radio up before the boot wake
		}
		vs := Verify(events)
		if len(vs) != 1 || !strings.Contains(vs[0].Reason, "before boot wake") {
			t.Fatalf("%s: violations = %v", typ, vs)
		}
	}
}

func TestVerifyCatchesSleepWhileRebooting(t *testing.T) {
	events := []Event{
		{Time: 1, Node: 1, Type: EvCrash},
		{Time: 2, Node: 1, Type: EvReboot},
		{Time: 2.5, Node: 1, Type: EvSleep}, // must boot through a wake first
	}
	vs := Verify(events)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "before the boot wake") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestVerifyCatchesRecoverWithoutCrash(t *testing.T) {
	vs := Verify([]Event{{Time: 1, Node: 1, Type: EvReboot}})
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "not crashed") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestVerifyCatchesTimeReversal(t *testing.T) {
	events := []Event{
		{Time: 5, Node: 1, Type: EvGen},
		{Time: 4, Node: 2, Type: EvGen},
	}
	vs := Verify(events)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "backwards") {
		t.Fatalf("violations = %v", vs)
	}
}

func TestFormatViolations(t *testing.T) {
	if FormatViolations(nil) != "" {
		t.Fatal("empty violations render non-empty")
	}
	out := FormatViolations([]Violation{{Event{Time: 1.5, Node: 3, Type: EvWake}, "x"}})
	if !strings.Contains(out, "node=3") || !strings.Contains(out, "wake") {
		t.Fatalf("format: %q", out)
	}
}

func TestVerifyTimeOrderCoversEveryType(t *testing.T) {
	events := []Event{
		{Time: 5, Node: 1, Type: EvDeliver},
		{Time: 4, Node: 2, Type: EvFTDUpdate},
	}
	vs := Verify(events)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "backwards") {
		t.Fatalf("violations = %v", vs)
	}
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCleanCampaign(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-runs", "15", "-seed", "4"}, &sb); err != nil {
		t.Fatalf("clean campaign failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{"chaos campaign", "15 randomized", "invariants", "0 violations", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCatchesMutation(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-runs", "4", "-seed", "4", "-inject-skip-sender-ftd"}, &sb)
	if err == nil {
		t.Fatalf("mutated build passed the campaign:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{"FAIL", "ftd-sender", "minimized", "reproduce with", `"inject_skip_sender_ftd":true`} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSONSummary(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-runs", "8", "-seed", "4", "-json"}, &sb); err != nil {
		t.Fatalf("clean campaign failed: %v\n%s", err, sb.String())
	}
	var summary struct {
		Runs         int
		FailureCount int
		Checks       uint64
	}
	if err := json.Unmarshal([]byte(sb.String()), &summary); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, sb.String())
	}
	if summary.Runs != 8 || summary.FailureCount != 0 || summary.Checks == 0 {
		t.Errorf("unexpected summary fields: %+v", summary)
	}
}

func TestRunJSONStillExitsNonzeroOnFailure(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-runs", "3", "-seed", "4", "-json", "-inject-skip-sender-ftd"}, &sb)
	if err == nil {
		t.Fatalf("mutated build passed the campaign:\n%s", sb.String())
	}
	var summary struct {
		FailureCount int
		Minimized    *json.RawMessage
	}
	if jerr := json.Unmarshal([]byte(sb.String()), &summary); jerr != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", jerr, sb.String())
	}
	if summary.FailureCount == 0 || summary.Minimized == nil {
		t.Errorf("failing campaign summary missing failures: %+v", summary)
	}
}

func TestRunStateResume(t *testing.T) {
	state := filepath.Join(t.TempDir(), "campaign.jsonl")
	args := []string{"-runs", "10", "-seed", "7", "-state", state, "-json"}

	var first strings.Builder
	if err := run(args, &first); err != nil {
		t.Fatalf("campaign with -state failed: %v\n%s", err, first.String())
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("state file not written: %v", err)
	}

	var resumed strings.Builder
	if err := run(append(args, "-resume"), &resumed); err != nil {
		t.Fatalf("resume failed: %v\n%s", err, resumed.String())
	}
	if first.String() != resumed.String() {
		t.Errorf("resumed summary differs from the original:\n--- first\n%s--- resumed\n%s", first.String(), resumed.String())
	}

	if err := run([]string{"-resume"}, &resumed); err == nil {
		t.Error("-resume without -state accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-scheme", "bogus"}, &sb); err == nil {
		t.Error("bogus scheme accepted")
	}
	if err := run([]string{"-unknownflag"}, &sb); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-sinks", "0"}, &sb); err == nil {
		t.Error("zero sinks accepted")
	}
}

package scenario

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dftmsn/internal/core"
	"dftmsn/internal/faults"
)

// TestParseScheme checks that a config's scheme key takes every paper name,
// case-insensitively, and refuses an unknown one.
func TestParseScheme(t *testing.T) {
	for _, s := range core.AllSchemes() {
		doc := `{"scheme": "` + strings.ToLower(s.String()) + `"}`
		cfg, err := LoadConfig(strings.NewReader(doc))
		if err != nil || cfg.Scheme != s {
			t.Errorf("LoadConfig(%s) scheme = %v, %v", doc, cfg.Scheme, err)
		}
	}
	if _, err := LoadConfig(strings.NewReader(`{"scheme": "nope"}`)); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestLoadConfigDefaults(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"scheme": "opt"}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig(core.SchemeOPT)
	if cfg.NumSensors != want.NumSensors || cfg.DurationSeconds != want.DurationSeconds {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Scheme != core.SchemeOPT {
		t.Fatalf("scheme %v", cfg.Scheme)
	}
}

func TestLoadConfigOverrides(t *testing.T) {
	doc := `{
		"scheme": "ZBR",
		"sensors": 42,
		"sinks": 2,
		"duration_s": 1234,
		"loss_prob": 0.1,
		"faults": {"kills": [{"at_s": 500, "fraction": 0.2}]},
		"mobile_sinks": true,
		"seed": 99
	}`
	cfg, err := LoadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != core.SchemeZBR || cfg.NumSensors != 42 || cfg.NumSinks != 2 {
		t.Fatalf("cfg %+v", cfg)
	}
	if cfg.DurationSeconds != 1234 || cfg.LossProb != 0.1 || !cfg.MobileSinks {
		t.Fatalf("cfg %+v", cfg)
	}
	if want := []faults.Kill{{AtSeconds: 500, Fraction: 0.2}}; cfg.Faults == nil || !reflect.DeepEqual(cfg.Faults.Kills, want) || cfg.Seed != 99 {
		t.Fatalf("cfg %+v", cfg)
	}
}

// TestLoadConfigExplicitZerosStick pins the decode-onto-defaults contract:
// an explicit zero is a value, not "unset", even where the default is
// non-zero, and the telemetry sampling interval is part of the schema.
func TestLoadConfigExplicitZerosStick(t *testing.T) {
	cfg, err := LoadConfig(strings.NewReader(`{"scheme": "opt", "exit_prob": 0, "seed": 0, "telemetry_sample_s": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	want := DefaultConfig(core.SchemeOPT)
	want.ExitProb = 0
	want.Seed = 0
	want.TelemetrySampleSeconds = 7
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("explicit zeros lost:\ngot:  %+v\nwant: %+v", cfg, want)
	}
}

func TestLoadConfigRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,                                 // malformed JSON
		`{"scheme": "teleport"}`,            // unknown scheme
		`{"scheme": "OPT", "sensores": 5}`,  // typo (unknown field)
		`{"scheme": "OPT", "sensors": -5}`,  // invalid value
		`{"scheme": "OPT", "loss_prob": 2}`, // out of range
		`{}`,                                // missing scheme
		`{"scheme": "OPT", "Shards": 4}`,    // runtime-only field
		// Removed keys: a kill is spelled faults.kills, the test-only
		// control arms are not part of the schema, and scenario.New sets
		// the two node fields of params from the scenario.
		`{"scheme": "OPT", "fail_fraction": 0.2, "fail_at_s": 500}`,
		`{"scheme": "OPT", "fail_fraction": 0}`,
		`{"scheme": "OPT", "fail_at_s": 500}`,
		`{"scheme": "OPT", "linear_medium": true}`,
		`{"scheme": "OPT", "eager_decay": true}`,
		paramsDoc(t, "EagerDecay", true),
		paramsDoc(t, "BatteryJoules", 0.05),
	}
	for _, doc := range cases {
		if _, err := LoadConfig(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

// paramsDoc returns an OPT config document whose params object holds the
// scheme's default parameters plus key: value. The document without the
// extra key must load, so a rejection can only be the key's doing.
func paramsDoc(t *testing.T, key string, value any) string {
	t.Helper()
	b, err := json.Marshal(core.DefaultParams(core.SchemeOPT))
	if err != nil {
		t.Fatal(err)
	}
	var params map[string]any
	if err := json.Unmarshal(b, &params); err != nil {
		t.Fatal(err)
	}
	doc := map[string]any{"scheme": "OPT", "params": params}
	if b, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadConfig(bytes.NewReader(b)); err != nil {
		t.Fatalf("default params do not load: %v", err)
	}
	params[key] = value
	if b, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := DefaultConfig(core.SchemeNOOPT)
	orig.NumSensors = 33
	orig.LossProb = 0.05
	orig.Seed = 7
	orig.DeliveryThreshold = 0.8
	var sb strings.Builder
	if err := SaveConfig(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if back.Scheme != orig.Scheme || back.NumSensors != 33 || back.LossProb != 0.05 ||
		back.Seed != 7 || back.DeliveryThreshold != 0.8 {
		t.Fatalf("round trip lost fields:\n%+v\n%+v", orig, back)
	}
}

func TestLoadConfigFaultPlan(t *testing.T) {
	doc := `{
		"scheme": "OPT",
		"faults": {
			"churn": {"mtbf_s": 500, "mttr_s": 100, "fraction": 0.5, "preserve_buffer": true},
			"sink_outages": [{"sink": -1, "start_s": 100, "duration_s": 50}],
			"burst_loss": {"bad_loss_prob": 0.9, "mean_good_s": 60, "mean_bad_s": 20},
			"kills": [{"at_s": 1000, "fraction": 0.25}]
		}
	}`
	cfg, err := LoadConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	p := cfg.Faults
	if p == nil || p.Churn == nil || p.Burst == nil {
		t.Fatalf("plan not loaded: %+v", p)
	}
	if p.Churn.MTBFSeconds != 500 || p.Churn.MTTRSeconds != 100 || p.Churn.Fraction != 0.5 || !p.Churn.PreserveBuffer {
		t.Fatalf("churn %+v", p.Churn)
	}
	if len(p.SinkOutages) != 1 || p.SinkOutages[0].Sink != -1 || p.SinkOutages[0].DurationSeconds != 50 {
		t.Fatalf("outages %+v", p.SinkOutages)
	}
	if p.Burst.BadLossProb != 0.9 || p.Burst.MeanGoodSeconds != 60 {
		t.Fatalf("burst %+v", p.Burst)
	}
	if len(p.Kills) != 1 || p.Kills[0].AtSeconds != 1000 || p.Kills[0].Fraction != 0.25 {
		t.Fatalf("kills %+v", p.Kills)
	}
}

func TestLoadConfigRejectsBadFaultPlan(t *testing.T) {
	cases := []string{
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": -1, "mttr_s": 100}}}`,                                // negative MTBF
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": 500}}}`,                                              // missing MTTR
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": "fast", "mttr_s": 100}}}`,                            // wrong type
		`{"scheme": "OPT", "faults": {"sink_outages": [{"sink": 7, "start_s": 1, "duration_s": 1}]}}`,          // no such sink
		`{"scheme": "OPT", "faults": {"sink_outages": [{"sink": 0, "start_s": 1}]}}`,                           // zero duration
		`{"scheme": "OPT", "faults": {"burst_loss": {"bad_loss_prob": 2, "mean_good_s": 1, "mean_bad_s": 1}}}`, // prob > 1
		`{"scheme": "OPT", "faults": {"kills": [{"at_s": 99999, "fraction": 0.5}]}}`,                           // beyond the run
		`{"scheme": "OPT", "faults": {"kills": [{"at_s": 100, "fraction": 1.5}]}}`,                             // fraction > 1
		`{"scheme": "OPT", "faults": {"churns": {}}}`,                                                          // typo (unknown field)
	}
	for _, doc := range cases {
		if _, err := LoadConfig(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

func TestSaveLoadRoundTripFaultPlan(t *testing.T) {
	orig := DefaultConfig(core.SchemeOPT)
	orig.Faults = &faults.Plan{
		Churn:       &faults.Churn{MTBFSeconds: 800, MTTRSeconds: 200, Fraction: 0.3, StartSeconds: 50, PreserveXi: true},
		SinkOutages: []faults.Outage{{Sink: 1, StartSeconds: 500, DurationSeconds: 250}},
		Burst:       &faults.Burst{GoodLossProb: 0.01, BadLossProb: 0.7, MeanGoodSeconds: 90, MeanBadSeconds: 30},
		Kills:       []faults.Kill{{AtSeconds: 2000, Fraction: 0.1}},
	}
	var sb strings.Builder
	if err := SaveConfig(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if !reflect.DeepEqual(back.Faults, orig.Faults) {
		t.Fatalf("fault plan lost in round trip:\n%+v\n%+v", orig.Faults, back.Faults)
	}
}

// FuzzLoadConfig checks that arbitrary config documents — including
// malformed fault plans — either load into a valid Config or error
// cleanly, never panic, and that whatever loads survives the codec:
// decoding its canonical encoding gives back exactly the same Config.
func FuzzLoadConfig(f *testing.F) {
	seeds := []string{
		`{"scheme": "opt"}`,
		`{"scheme": "ZBR", "sensors": 42, "faults": {"kills": [{"at_s": 500, "fraction": 0.2}]}}`,
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": 500, "mttr_s": 100}}}`,
		`{"scheme": "OPT", "faults": {"sink_outages": [{"sink": -1, "start_s": 1, "duration_s": 1}]}}`,
		`{"scheme": "OPT", "faults": {"burst_loss": {"bad_loss_prob": 0.9, "mean_good_s": 6e1, "mean_bad_s": 2}}}`,
		`{"scheme": "OPT", "faults": {"kills": [{"at_s": 1e3, "fraction": 0.25}]}}`,
		`{"scheme": "OPT", "faults": {"churn": {"mtbf_s": 1e999, "mttr_s": null}}}`,
		`{"scheme": "OPT", "faults": {"kills": [{"at_s": "NaN"}]}}`,
		`{"scheme": "OPT", "faults": {`,
		`{"scheme": "OPT", "faults": 7}`,
		`{"scheme": "opt", "exit_prob": 0}`,
		`{"scheme": "opt", "seed": 0}`,
		`{"scheme": "opt", "telemetry_sample_s": 7}`,
		`{"scheme": "OPT", "faults": {"sink_outages": [], "kills": []}}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		cfg, err := LoadConfig(strings.NewReader(doc))
		if err != nil {
			return
		}
		// Whatever loads must already be validated.
		if err := cfg.Validate(); err != nil {
			t.Fatalf("LoadConfig accepted an invalid config: %v\n%s", err, doc)
		}
		blob, err := EncodeConfig(cfg)
		if err != nil {
			t.Fatalf("loaded config does not encode: %v\n%s", err, doc)
		}
		back, err := DecodeConfig(blob)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, blob)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("codec round trip changed the config:\nloaded:  %+v\ndecoded: %+v\nfrom %s", cfg, back, doc)
		}
	})
}

func TestSaveLoadRoundTripInvariantFields(t *testing.T) {
	orig := DefaultConfig(core.SchemeOPT)
	orig.Invariants = "panic"
	orig.InjectSkipSenderFTD = true
	var sb strings.Builder
	if err := SaveConfig(&sb, orig); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	if back.Invariants != "panic" || !back.InjectSkipSenderFTD {
		t.Fatalf("round trip lost invariant fields:\n%s\n%+v", sb.String(), back)
	}
	// The default (engine off, no injection) keeps the keys out of the JSON.
	var plain strings.Builder
	if err := SaveConfig(&plain, DefaultConfig(core.SchemeOPT)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "invariants") || strings.Contains(plain.String(), "inject_") {
		t.Fatalf("zero-valued invariant keys serialized:\n%s", plain.String())
	}
}

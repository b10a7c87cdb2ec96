package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// LoadConfig reads a JSON configuration in Config's own schema. The
// document is decoded onto the paper defaults, so absent keys keep their
// DefaultConfig values and explicit values — zeros included — stick. The
// scheme name is required (Validate rejects the zero scheme), and unknown
// keys are rejected at any depth to catch typos.
func LoadConfig(r io.Reader) (Config, error) {
	cfg := DefaultConfig(0)
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("scenario: config: %w", err)
	}
	if p := cfg.Faults; p != nil {
		// An empty list encodes as an absent key; load it as one, so every
		// loaded config survives an encode/decode round trip unchanged.
		if len(p.SinkOutages) == 0 {
			p.SinkOutages = nil
		}
		if len(p.Kills) == 0 {
			p.Kills = nil
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// SaveConfig writes the serialisable fields of cfg as indented JSON.
func SaveConfig(w io.Writer, cfg Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cfg)
}

// EncodeConfig returns the canonical JSON of the serialisable fields of cfg
// — what a snapshot embeds to make itself self-describing.
func EncodeConfig(cfg Config) ([]byte, error) {
	var buf bytes.Buffer
	if err := SaveConfig(&buf, cfg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeConfig parses a configuration produced by EncodeConfig. Runtime-only
// attachments (recorders, frame capture) are not part of the encoding;
// reattach them after decoding.
func DecodeConfig(b []byte) (Config, error) {
	return LoadConfig(bytes.NewReader(b))
}

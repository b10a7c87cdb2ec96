package core

import (
	"fmt"
	"strings"

	"dftmsn/internal/optimize"
	"dftmsn/internal/packet"
	"dftmsn/internal/routing"
)

// Scheme identifies one of the protocol variants evaluated in the paper's
// §5 (OPT, NOOPT, NOSLEEP, ZBR) or one of the §2 basic schemes provided as
// extensions (Direct, Epidemic).
type Scheme int

// Protocol variants.
const (
	// SchemeOPT is the proposed protocol with all §4 optimizations.
	SchemeOPT Scheme = iota + 1
	// SchemeNOOPT is the basic §3 protocol with fixed parameters.
	SchemeNOOPT
	// SchemeNOSLEEP is OPT without periodic sleeping.
	SchemeNOSLEEP
	// SchemeZBR replaces the FTD multicast with ZebraNet's history scheme.
	SchemeZBR
	// SchemeDirect is the §2 direct-transmission basic scheme (extension).
	SchemeDirect
	// SchemeEpidemic is the §2 flooding basic scheme (extension).
	SchemeEpidemic
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeOPT:
		return "OPT"
	case SchemeNOOPT:
		return "NOOPT"
	case SchemeNOSLEEP:
		return "NOSLEEP"
	case SchemeZBR:
		return "ZBR"
	case SchemeDirect:
		return "DIRECT"
	case SchemeEpidemic:
		return "EPIDEMIC"
	default:
		return fmt.Sprintf("SCHEME(%d)", int(s))
	}
}

// Schemes lists the paper's four evaluated variants in figure order.
func Schemes() []Scheme {
	return []Scheme{SchemeOPT, SchemeNOSLEEP, SchemeNOOPT, SchemeZBR}
}

// AllSchemes lists every implemented scheme including extensions.
func AllSchemes() []Scheme {
	return []Scheme{SchemeOPT, SchemeNOSLEEP, SchemeNOOPT, SchemeZBR, SchemeDirect, SchemeEpidemic}
}

// Valid reports whether s is a known scheme.
func (s Scheme) Valid() bool { return s >= SchemeOPT && s <= SchemeEpidemic }

// ParseScheme resolves a scheme by its paper name, case-insensitively.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range AllSchemes() {
		if strings.EqualFold(s.String(), name) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// MarshalText encodes a valid scheme as its paper name, the form JSON
// configs carry.
func (s Scheme) MarshalText() ([]byte, error) {
	if !s.Valid() {
		return nil, fmt.Errorf("core: invalid scheme %d", int(s))
	}
	return []byte(s.String()), nil
}

// UnmarshalText parses a paper name as ParseScheme does.
func (s *Scheme) UnmarshalText(text []byte) error {
	v, err := ParseScheme(string(text))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// DefaultSleepConfig returns the §4.1 controller settings used throughout
// the reproduction: S = 5 cycle history, sleep after L = 3 idle cycles,
// buffer threshold H = 0.3, T_min = 0.5 s (well above the Eq. 7 bound of a
// few hundred µs for the mote profile), importance bound F = 0.5. These
// yield a sensor duty cycle near 1/8 of always-on, reproducing the paper's
// ≈8× OPT-vs-NOSLEEP energy gap (see EXPERIMENTS.md for calibration).
func DefaultSleepConfig() optimize.SleepConfig {
	return optimize.SleepConfig{S: 5, L: 3, H: 0.3, TMin: 0.5, FImportant: 0.5}
}

// DefaultParams returns the node parameters for a scheme, mirroring §5:
// OPT optimizes τ_max (Eq. 13), W (Eq. 14) and the sleeping period
// (Eq. 6); NOOPT fixes all three; NOSLEEP is OPT minus sleeping; ZBR,
// Direct and Epidemic reuse OPT's MAC parameters.
func DefaultParams(s Scheme) Params {
	p := Params{
		AdaptiveTau:     true,
		TauMaxFixed:     4,
		TauMaxCap:       32,
		AdaptiveWindow:  true,
		WindowFixed:     2,
		WindowCap:       64,
		CollisionTarget: 0.1,
		NeighborTTL:     30,
		SleepEnabled:    true,
		AdaptiveSleep:   true,
		SleepFixed:      1,
		Sleep:           DefaultSleepConfig(),
		DecayInterval:   30,
	}
	switch s {
	case SchemeNOOPT:
		// Fixed parameters: a short listening bound and a tiny contention
		// window invite preamble/CTS collisions (§5: "we observe many
		// collisions during RTS/CTS transmissions"); the sleep period is
		// fixed near OPT's adaptive mean so the comparison isolates the
		// collision effect.
		p.AdaptiveTau = false
		p.AdaptiveWindow = false
		p.AdaptiveSleep = false
	case SchemeNOSLEEP:
		p.SleepEnabled = false
	case SchemeZBR:
		// ZBR keeps OPT's optimized τ_max and W but not the Eq. 6 sleeping
		// period: that optimization is FTD-coupled (α = K_F/K), part of
		// the fault-tolerance scheme ZBR replaces. The fixed period
		// reproduces the paper's Fig. 2 ZBR profile — power above OPT,
		// below NOOPT (see EXPERIMENTS.md for the calibration).
		p.AdaptiveSleep = false
		p.SleepFixed = 2
	default:
		// OPT, Direct, Epidemic use the optimized parameters.
	}
	return p
}

// StrategyOverrides adjusts scheme-internal constants for ablation
// studies; zero values keep the defaults. Only the FAD-family schemes
// (OPT, NOOPT, NOSLEEP) consume them.
type StrategyOverrides struct {
	// DeliveryThreshold overrides R of §3.2.2.
	DeliveryThreshold float64
	// DropThreshold overrides the §3.1.2 FTD drop bound.
	DropThreshold float64
	// SkipSenderFTDUpdate deliberately breaks the Eq. 3 sender-FTD update
	// (mutation testing for the runtime invariant engine; see
	// routing.FADConfig.SkipSenderFTDUpdate). Never enable in a real
	// experiment.
	SkipSenderFTDUpdate bool
}

// NewStrategy builds the routing strategy a sensor runs under scheme s.
// isSink classifies node IDs (needed by ZBR and Direct); queueCap is the
// buffer size K.
func NewStrategy(s Scheme, id packet.NodeID, queueCap int, isSink func(packet.NodeID) bool) (routing.Strategy, error) {
	return NewStrategyWithOverrides(s, id, queueCap, isSink, StrategyOverrides{})
}

// NewStrategyWithOverrides is NewStrategy with scheme-constant overrides.
func NewStrategyWithOverrides(s Scheme, id packet.NodeID, queueCap int, isSink func(packet.NodeID) bool, ov StrategyOverrides) (routing.Strategy, error) {
	switch s {
	case SchemeOPT, SchemeNOOPT, SchemeNOSLEEP:
		cfg := routing.DefaultFADConfig()
		cfg.QueueCapacity = queueCap
		if ov.DeliveryThreshold > 0 {
			cfg.DeliveryThreshold = ov.DeliveryThreshold
		}
		if ov.DropThreshold > 0 {
			cfg.DropThreshold = ov.DropThreshold
		}
		cfg.SkipSenderFTDUpdate = ov.SkipSenderFTDUpdate
		return routing.NewFAD(id, cfg)
	case SchemeZBR:
		cfg := routing.DefaultZBRConfig()
		cfg.QueueCapacity = queueCap
		return routing.NewZBR(id, cfg, isSink)
	case SchemeDirect:
		return routing.NewDirect(id, queueCap, isSink)
	case SchemeEpidemic:
		return routing.NewEpidemic(id, queueCap)
	default:
		return nil, fmt.Errorf("core: unknown scheme %d", int(s))
	}
}

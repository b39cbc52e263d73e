package profflag

import (
	"flag"

	"repro/internal/core"
)

// samplingValue is the flag.Value behind -sampling: it validates the tier
// spelling at parse time, so a typo fails the command instead of silently
// running the exact profiler.
type samplingValue struct {
	tier core.SamplingTier
}

// String renders the current tier for flag-package help output.
func (v *samplingValue) String() string { return v.tier.String() }

// Set parses one of the tier spellings: off or burst.
func (v *samplingValue) Set(s string) error {
	tier, err := core.ParseSamplingTier(s)
	if err != nil {
		return err
	}
	v.tier = tier
	return nil
}

// registerSampling adds -sampling to fs; Register calls it so every tool
// sharing this package exposes the same adaptive-instrumentation knob.
func (p *Flags) registerSampling(fs *flag.FlagSet) {
	fs.Var(&p.sampling, "sampling", "adaptive instrumentation `tier`: off (exact) or burst (sampled hot routines, bounded error)")
}

// Sampling returns the tier parsed from -sampling (SamplingOff when the
// flag was not given), ready to assign to core.Options.Sampling.
func (p *Flags) Sampling() core.SamplingTier { return p.sampling.tier }

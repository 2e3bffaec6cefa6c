package cloudburst

import (
	"sort"
	"strings"
)

// presetRegistry maps the named base configurations selectable by Preset.
// The CLI -preset/-profiles vocabularies resolve through the same registry
// (see SweepProfileFor), so command-line names and library presets cannot
// drift apart.
var presetRegistry = map[string]func() Options{
	// paper is the experimental setup of Sec. V: 8 IC VMs, 2 EC VMs, six
	// ~15-job batches every three minutes, a diurnal ~600 kB/s upload /
	// ~900 kB/s download pipe with moderate jitter, and the
	// order-preserving scheduler.
	"paper": func() Options { return Options{}.Normalize() },
	// highvar is the paper testbed under the high-variation network regime:
	// bandwidth jitter rises to CV ≈ 0.5, the setting the paper uses to
	// stress the slack rule.
	"highvar": func() Options { return Options{JitterCV: 0.5}.Normalize() },
	// outage is the paper testbed with throttled network outage episodes:
	// roughly every 3000 s both links drop to 20% capacity for ~300 s.
	"outage": func() Options {
		return Options{OutageMTBF: 3000, OutageMeanDuration: 300, OutageThrottle: 0.2}.Normalize()
	},
}

// Preset returns the named base configuration with every default made
// explicit — a plain value, tweak fields freely before passing it to Run.
// Unknown names are rejected with a typed *OptionError naming the
// registered presets; Presets lists them.
func Preset(name string) (Options, error) {
	build, ok := presetRegistry[name]
	if !ok {
		return Options{}, optErr("Preset", name,
			"is not a registered preset (want %s)", strings.Join(Presets(), ", "))
	}
	return build(), nil
}

// Presets returns the registered preset names in sorted order.
func Presets() []string {
	out := make([]string, 0, len(presetRegistry))
	for name := range presetRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SweepProfileFor derives the sweep network profile that reproduces the
// named preset's network regime: running a sweep cell under the returned
// profile yields the same effective Options (equal Fingerprint, network
// fields aside from seeds) as running the preset directly. cmd/sweep's
// -profiles vocabulary resolves through this function, so its names are
// exactly Presets().
func SweepProfileFor(name string) (SweepProfile, error) {
	o, err := Preset(name)
	if err != nil {
		return SweepProfile{}, err
	}
	return SweepProfile{
		Name:               name,
		UploadMeanBW:       o.UploadMeanBW,
		DownloadMeanBW:     o.DownloadMeanBW,
		DiurnalAmplitude:   o.DiurnalAmplitude,
		JitterCV:           o.JitterCV,
		OutageMTBF:         o.OutageMTBF,
		OutageMeanDuration: o.OutageMeanDuration,
		OutageThrottle:     o.OutageThrottle,
	}, nil
}

package cloudburst

import (
	"cloudburst/internal/cluster"
	"cloudburst/internal/engine"
	"cloudburst/internal/netsim"
)

// FaultOptions enables deterministic fault injection on a run. Three
// independent fault sources can be armed, each disabled while its MTBF is
// zero; every affected job re-enters the pipeline through the recovery
// state machine (bounded retries with exponential backoff, slack-rule
// re-admission, IC fallback of last resort), so no job is ever lost — even
// when the external cloud is revoked entirely.
type FaultOptions struct {
	// ECRevocationMTBF is the mean time in seconds between spot-style
	// revocations of external-cloud machines. Revocations are permanent:
	// the machine never comes back and its rental ends.
	ECRevocationMTBF float64
	// ECRevocationWarning is the advance notice each revocation gives, like
	// real spot markets: the machine accepts no new work and its current
	// task races the deadline. Zero revokes instantly.
	ECRevocationWarning float64

	// ICCrashMTBF is the mean time between internal-cloud machine crashes.
	// IC crashes are always repairable — the IC is the fallback of last
	// resort and cannot lose machines permanently.
	ICCrashMTBF float64
	// ICCrashMTTR is the mean repair time of a crashed IC machine
	// (default 300 s).
	ICCrashMTTR float64

	// TransferStallMTBF is the mean time between stalls on the primary EC
	// links: the transfer freezes at zero rate until the sender timeout
	// aborts it.
	TransferStallMTBF float64
	// TransferStallTimeout is the sender timeout that aborts a stalled
	// transfer (default 120 s).
	TransferStallTimeout float64

	// MaxRetries bounds EC re-admissions per job before it falls back to
	// the internal cloud. Zero means the default of 2; set a negative value
	// to disable retries and fall back immediately.
	MaxRetries int
	// RetryBackoff is the base delay before a retry; attempt n waits
	// RetryBackoff * 2^(n-1) seconds (default 30).
	RetryBackoff float64

	// Seed drives the dedicated fault RNG, independent of the workload and
	// network streams: the same FaultOptions and seeds reproduce the exact
	// same failure schedule.
	Seed int64
}

// normalize fills the documented defaults, leaving disabled sources alone.
func (f FaultOptions) normalize() FaultOptions {
	if f.ICCrashMTBF > 0 && f.ICCrashMTTR == 0 {
		f.ICCrashMTTR = 300
	}
	if f.TransferStallMTBF > 0 && f.TransferStallTimeout == 0 {
		f.TransferStallTimeout = 120
	}
	if f.MaxRetries == 0 {
		f.MaxRetries = 2
	}
	if f.RetryBackoff == 0 {
		f.RetryBackoff = 30
	}
	return f
}

// validate rejects out-of-domain fault options with typed *OptionError
// values, mirroring Options.validate.
func (f FaultOptions) validate() error {
	if err := checkFinite("Faults.", []floatField{
		{"ECRevocationMTBF", f.ECRevocationMTBF},
		{"ECRevocationWarning", f.ECRevocationWarning},
		{"ICCrashMTBF", f.ICCrashMTBF},
		{"ICCrashMTTR", f.ICCrashMTTR},
		{"TransferStallMTBF", f.TransferStallMTBF},
		{"TransferStallTimeout", f.TransferStallTimeout},
		{"RetryBackoff", f.RetryBackoff},
	}); err != nil {
		return err
	}
	switch {
	case f.ECRevocationMTBF < 0:
		return optErr("Faults.ECRevocationMTBF", f.ECRevocationMTBF, "must not be negative")
	case f.ECRevocationWarning < 0:
		return optErr("Faults.ECRevocationWarning", f.ECRevocationWarning, "must not be negative")
	case f.ICCrashMTBF < 0:
		return optErr("Faults.ICCrashMTBF", f.ICCrashMTBF, "must not be negative")
	case f.ICCrashMTTR < 0:
		return optErr("Faults.ICCrashMTTR", f.ICCrashMTTR, "must not be negative")
	case f.TransferStallMTBF < 0:
		return optErr("Faults.TransferStallMTBF", f.TransferStallMTBF, "must not be negative")
	case f.TransferStallTimeout < 0:
		return optErr("Faults.TransferStallTimeout", f.TransferStallTimeout, "must not be negative")
	case f.RetryBackoff < 0:
		return optErr("Faults.RetryBackoff", f.RetryBackoff, "must not be negative")
	}
	return nil
}

// engineConfig translates the normalized fault options into the engine's
// grouped fault configuration.
func (f FaultOptions) engineConfig() *engine.FaultConfig {
	fc := &engine.FaultConfig{
		MaxRetries:   f.MaxRetries,
		RetryBackoff: f.RetryBackoff,
		Seed:         f.Seed,
	}
	if f.ECRevocationMTBF > 0 {
		fc.ECRevocation = cluster.FaultModel{
			MTBF:     f.ECRevocationMTBF,
			WarnLead: f.ECRevocationWarning,
		}
	}
	if f.ICCrashMTBF > 0 {
		fc.ICCrash = cluster.FaultModel{
			MTBF: f.ICCrashMTBF,
			MTTR: f.ICCrashMTTR,
		}
	}
	if f.TransferStallMTBF > 0 {
		fc.TransferStalls = netsim.StallModel{
			MeanTimeBetween: f.TransferStallMTBF,
			Timeout:         f.TransferStallTimeout,
		}
	}
	return fc
}

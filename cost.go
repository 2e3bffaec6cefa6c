package cloudburst

import "cloudburst/internal/cost"

// CostOptions arms the deterministic pricing model: every external-cloud
// machine accrues rental cost for the span it is held, rounded up to whole
// billing intervals like real cloud billing, and — when Budget is set —
// schedulers refuse bursts whose prepaid charge would overrun the remaining
// budget, keeping that work on the internal cloud instead. Nil CostOptions
// keeps cost accounting off with zero simulation-path overhead and a
// bit-identical trace.
//
// Two figures are reported. Report.CostRental is the audited rental bill of
// the machines actually held (a fixed fleet rents for the whole run
// regardless of placement decisions; an elastic fleet for its boot–drain
// spans). Report.CostCommitted is the prepaid spend the budget gate meters:
// each admitted burst commits the billing-rounded price of its estimated
// EC occupancy at admission time, and the running commitment never exceeds
// Budget by construction.
type CostOptions struct {
	// OnDemandRate is the on-demand price of one external-cloud machine in
	// dollars per machine-hour (default 0.10). Extra EC sites may override
	// it per site via ECSiteSpec.OnDemandRate.
	OnDemandRate float64
	// SpotRate is the discounted machine-hour price used for the primary EC
	// fleet when spot-style revocations are armed
	// (Faults.ECRevocationMTBF > 0). Zero keeps the on-demand rate.
	SpotRate float64
	// BillingIntervalSec rounds every rental span and burst commitment up
	// to whole billing intervals, minimum one (default 3600: hourly
	// billing).
	BillingIntervalSec float64
	// Budget caps the committed burst spend in dollars; once the next
	// burst's prepaid charge would overrun it, schedulers keep the job on
	// the internal cloud (the job is never lost). Zero means unlimited.
	Budget float64
}

// normalize fills the documented defaults, mirroring FaultOptions.
func (c CostOptions) normalize() CostOptions {
	if c.OnDemandRate == 0 {
		c.OnDemandRate = 0.10
	}
	if c.BillingIntervalSec == 0 {
		c.BillingIntervalSec = cost.DefaultBillingInterval
	}
	return c
}

// validate rejects out-of-domain cost options with typed *OptionError
// values, mirroring Options.validate.
func (c CostOptions) validate() error {
	if err := checkFinite("Cost.", []floatField{
		{"OnDemandRate", c.OnDemandRate},
		{"SpotRate", c.SpotRate},
		{"BillingIntervalSec", c.BillingIntervalSec},
		{"Budget", c.Budget},
	}); err != nil {
		return err
	}
	switch {
	case c.OnDemandRate < 0:
		return optErr("Cost.OnDemandRate", c.OnDemandRate, "must not be negative")
	case c.SpotRate < 0:
		return optErr("Cost.SpotRate", c.SpotRate, "must not be negative")
	case c.BillingIntervalSec < 0:
		return optErr("Cost.BillingIntervalSec", c.BillingIntervalSec, "must not be negative")
	case c.Budget < 0:
		return optErr("Cost.Budget", c.Budget, "must not be negative")
	}
	return nil
}

// engineConfig translates the normalized cost options into the engine's
// pricing configuration. spot reports whether the primary EC fleet is
// revocable.
func (c CostOptions) engineConfig(spot bool) *cost.Config {
	return &cost.Config{
		OnDemandRate:    c.OnDemandRate,
		SpotRate:        c.SpotRate,
		BillingInterval: c.BillingIntervalSec,
		Budget:          c.Budget,
		Spot:            spot,
	}
}

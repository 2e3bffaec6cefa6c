// Package cost is the deterministic pricing model for the external cloud:
// per-machine rental rates with billing-interval rounding, a meter that
// keeps the prices and running totals, and a committed-spend account that
// backs budget-gated burst admission. The meter holds no per-machine
// state: the cluster's machine records are the one rental ledger, and the
// engine bills a machine from its join time when it leaves a fleet
// (autoscale drain, fatal revocation) or when a finite run closes out.
//
// The package is dependency-free on purpose: the engine accrues cost
// through a Meter while the SLA auditor replays the same arithmetic from
// the trace stream alone, and both must call the one BillSpan below so
// their totals agree to 1e-9 (in practice bit for bit).
//
// Two figures of merit come out of a priced run and they are deliberately
// distinct:
//
//   - Rental cost: what the fleet actually costs — every machine rental
//     span rounded up to whole billing intervals and priced at its rate.
//     A fixed fleet rents for the whole run whether or not any job bursts,
//     so rental cost is audited, not budget-bounded.
//   - Committed spend: the prepaid reservation model behind admission —
//     each burst is charged its projected EC occupancy (rounded to billing
//     intervals) the moment it is admitted. The budget gate compares this
//     charge against the remaining budget, so committed spend can never
//     exceed Budget by construction; retries reuse their reservation and
//     fallbacks get no refund, keeping the accrual monotone.
package cost

import "math"

// DefaultBillingInterval is the billing granularity when none is set:
// hourly, the classic IaaS quantum.
const DefaultBillingInterval = 3600

// Config prices the external cloud for one run.
type Config struct {
	// OnDemandRate is the rental price of one EC machine-hour.
	OnDemandRate float64
	// SpotRate, when positive, replaces OnDemandRate while Spot is set —
	// the discounted price of capacity that can be revoked.
	SpotRate float64
	// BillingInterval is the billing granularity in seconds (default
	// DefaultBillingInterval). Rental spans round up to whole intervals.
	BillingInterval float64
	// Budget caps committed burst spend; 0 means unlimited.
	Budget float64
	// Spot marks the primary EC as spot-style capacity (the caller sets it
	// when the revocation fault model is armed).
	Spot bool
}

// WithDefaults fills the billing granularity.
func (c Config) WithDefaults() Config {
	if c.BillingInterval == 0 {
		c.BillingInterval = DefaultBillingInterval
	}
	return c
}

// Rate is the effective primary-EC rental rate in $/machine-hour.
func (c Config) Rate() float64 {
	if c.Spot && c.SpotRate > 0 {
		return c.SpotRate
	}
	return c.OnDemandRate
}

// BillSpan prices one machine rented over [start, end] at rate
// ($/machine-hour) under a billing granularity of interval seconds: the
// span rounds up to whole intervals, with a minimum of one — a started
// interval is billed in full, as providers do. Every consumer of rental
// pricing (the engine meter, the audit replay) must go through this one
// expression so their totals agree exactly.
func BillSpan(start, end, interval, rate float64) float64 {
	span := end - start
	if span < 0 || math.IsNaN(span) {
		span = 0
	}
	if interval <= 0 {
		interval = DefaultBillingInterval
	}
	n := math.Ceil(span / interval)
	if n < 1 {
		n = 1
	}
	return n * interval * (rate / 3600)
}

// Meter is one run's cost account: the prices, the billed rental total
// and the committed burst spend against the budget. It keeps no per-machine
// state — which machines are on the clock, and since when, is the cluster's
// own record; the engine bills each rental through Bill when it ends. It is
// driven synchronously from the single-threaded simulation loop and needs
// no locking.
type Meter struct {
	cfg Config

	rentalTotal float64
	committed   float64
}

// NewMeter builds a meter.
func NewMeter(cfg Config) *Meter {
	return &Meter{cfg: cfg.WithDefaults()}
}

// Rate is the effective primary-EC rate.
func (m *Meter) Rate() float64 { return m.cfg.Rate() }

// Budget returns the configured budget (0 = unlimited).
func (m *Meter) Budget() float64 { return m.cfg.Budget }

// BillingInterval returns the billing granularity in seconds.
func (m *Meter) BillingInterval() float64 { return m.cfg.BillingInterval }

// Bill prices one rental over [start, end] at rate, adds it to the rental
// total, and returns the billed amount plus the new total.
func (m *Meter) Bill(start, end, rate float64) (amount, total float64) {
	amount = BillSpan(start, end, m.cfg.BillingInterval, rate)
	m.rentalTotal += amount
	return amount, m.rentalTotal
}

// RentalTotal is the billed total of ended rentals.
func (m *Meter) RentalTotal() float64 { return m.rentalTotal }

// Charge quotes the committed cost of bursting a job with the given
// standardized processing estimate: its projected EC occupancy on a
// standard-speed machine, rounded up to billing intervals at the effective
// rate. Quoting does not commit.
func (m *Meter) Charge(estStd float64) float64 {
	return BillSpan(0, estStd, m.cfg.BillingInterval, m.cfg.Rate())
}

// Commit accrues one admitted burst's charge and returns the new
// committed total.
func (m *Meter) Commit(amount float64) (total float64) {
	m.committed += amount
	return m.committed
}

// Committed is the accrued burst spend.
func (m *Meter) Committed() float64 { return m.committed }

// Remaining is the uncommitted budget, +Inf when unlimited. Because the
// admission gate only commits charges no larger than Remaining, the
// committed total can never exceed the budget.
func (m *Meter) Remaining() float64 {
	if m.cfg.Budget <= 0 {
		return math.Inf(1)
	}
	return m.cfg.Budget - m.committed
}

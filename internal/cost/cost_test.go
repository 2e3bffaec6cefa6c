package cost

import (
	"math"
	"testing"
)

func TestBillSpanRounding(t *testing.T) {
	cases := []struct {
		name                       string
		start, end, interval, rate float64
		want                       float64
	}{
		{"zero span bills one interval", 0, 0, 3600, 0.10, 0.10},
		{"sub-interval rounds up", 100, 200, 3600, 0.10, 0.10},
		{"exact interval", 0, 3600, 3600, 0.10, 0.10},
		{"just over one interval", 0, 3601, 3600, 0.10, 0.20},
		{"two intervals", 0, 7200, 3600, 0.10, 0.20},
		{"minute billing", 0, 90, 60, 0.60, 2 * 60 * (0.60 / 3600)},
		{"negative span clamps to one interval", 500, 100, 3600, 0.10, 0.10},
		{"zero interval falls back to default", 0, 100, 0, 0.10, 0.10},
		{"zero rate is free", 0, 10000, 3600, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := BillSpan(tc.start, tc.end, tc.interval, tc.rate)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("BillSpan(%g,%g,%g,%g) = %.12f, want %.12f",
					tc.start, tc.end, tc.interval, tc.rate, got, tc.want)
			}
		})
	}
}

func TestConfigRate(t *testing.T) {
	c := Config{OnDemandRate: 0.10, SpotRate: 0.03}
	if got := c.Rate(); got != 0.10 {
		t.Fatalf("on-demand rate = %g", got)
	}
	c.Spot = true
	if got := c.Rate(); got != 0.03 {
		t.Fatalf("spot rate = %g", got)
	}
	c.SpotRate = 0 // spot capacity without a discount keeps the on-demand price
	if got := c.Rate(); got != 0.10 {
		t.Fatalf("spot without SpotRate = %g", got)
	}
}

func TestMeterRentalLifecycle(t *testing.T) {
	m := NewMeter(Config{OnDemandRate: 0.10})
	if m.BillingInterval() != DefaultBillingInterval {
		t.Fatalf("billing interval = %g", m.BillingInterval())
	}
	// A rental is billed once, when it ends, from its start and rate; the
	// meter only keeps the running total.
	amount, total := m.Bill(0, 3600, 0.10)
	if amount != 0.10 || total != 0.10 {
		t.Fatalf("first bill: amount=%g total=%g", amount, total)
	}
	amount, total = m.Bill(100, 3700, 0.30) // one interval at its own rate
	if math.Abs(amount-0.30) > 1e-12 || math.Abs(total-0.40) > 1e-12 {
		t.Fatalf("second bill: amount=%g total=%g", amount, total)
	}
	if m.RentalTotal() != total {
		t.Fatalf("rental total = %g, want %g", m.RentalTotal(), total)
	}
	if m.Committed() != 0 {
		t.Fatal("billing a rental committed burst spend")
	}
}

func TestMeterChargeAndBudget(t *testing.T) {
	// A 3600-std-second job occupies a standard EC machine for one interval.
	m := NewMeter(Config{OnDemandRate: 0.10, Budget: 0.25})
	if got := m.Charge(3600); math.Abs(got-0.10) > 1e-12 {
		t.Fatalf("Charge = %g", got)
	}
	if got := m.Remaining(); got != 0.25 {
		t.Fatalf("Remaining = %g", got)
	}
	if total := m.Commit(0.10); total != 0.10 {
		t.Fatalf("committed total = %g", total)
	}
	m.Commit(0.10)
	if got := m.Remaining(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("Remaining after commits = %g", got)
	}
	if m.Committed() != 0.20 {
		t.Fatalf("Committed = %g", m.Committed())
	}

	unlimited := NewMeter(Config{OnDemandRate: 0.10})
	if !math.IsInf(unlimited.Remaining(), 1) {
		t.Fatalf("unlimited Remaining = %g", unlimited.Remaining())
	}
}

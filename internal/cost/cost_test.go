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
	m.Start("ec", 0, 0, 0.10)
	m.Start("ec", 1, 100, 0.10)

	// Ending an unknown machine bills nothing.
	if amount, total, ok := m.End("ec", 7, 500); ok || amount != 0 || total != 0 {
		t.Fatalf("phantom end: amount=%g total=%g ok=%v", amount, total, ok)
	}

	amount, total, ok := m.End("ec", 0, 3600)
	if !ok || amount != 0.10 || total != 0.10 {
		t.Fatalf("first end: amount=%g total=%g ok=%v", amount, total, ok)
	}
	// Double end is a no-op.
	if _, _, ok := m.End("ec", 0, 4000); ok {
		t.Fatal("double end billed")
	}

	// AccruedAt prices open rentals without closing them.
	acc := m.AccruedAt(3700) // machine 1 open since t=100: one interval
	if want := 0.10 + 0.10; math.Abs(acc-want) > 1e-12 {
		t.Fatalf("AccruedAt = %.12f, want %.12f", acc, want)
	}
	if open := m.Open(); len(open) != 1 || open[0].Machine != 1 {
		t.Fatalf("open rentals = %+v", open)
	}
	if m.RentalTotal() != 0.10 {
		t.Fatalf("rental total = %g", m.RentalTotal())
	}
}

func TestMeterOpenOrderDeterministic(t *testing.T) {
	m := NewMeter(Config{OnDemandRate: 0.10})
	m.Start("ec2", 1, 0, 0.10)
	m.Start("ec", 3, 0, 0.10)
	m.Start("ec", 1, 0, 0.10)
	open := m.Open()
	if len(open) != 3 ||
		open[0].Cluster != "ec" || open[0].Machine != 1 ||
		open[1].Cluster != "ec" || open[1].Machine != 3 ||
		open[2].Cluster != "ec2" {
		t.Fatalf("close-out order = %+v", open)
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

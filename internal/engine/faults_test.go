package engine_test

// Fault-injection acceptance tests. The central invariant: no job is ever
// lost — every fault-disturbed job is delivered, through retry or IC
// fallback — and the independent trace auditor recomputes the SLA metrics
// from the fault run's stream in exact agreement with the engine.

import (
	"strings"
	"testing"

	"cloudburst/internal/cluster"
	"cloudburst/internal/cost"
	"cloudburst/internal/engine"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

// auditTol bounds the engine-vs-auditor disagreement on recomputed metrics.
const auditTol = 1e-9

// runFaulted executes one traced fault run, cross-checks it against the
// auditor's independent replay and returns the run's events.
func runFaulted(t *testing.T, cfg engine.Config, s sched.Scheduler) (*engine.Result, []trace.Event) {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	g, err := workload.NewGenerator(workload.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(cfg, s, g.Generate())
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.AuditEvents(rec.Events(), trace.AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A clean audit includes the job-accounting identity (arrivals + chunks
	// - split parents = deliveries): the no-job-lost invariant.
	if !a.OK() {
		t.Fatalf("audit found issues: %v", a.Issues)
	}
	if a.Deliveries != res.Jobs {
		t.Fatalf("audit saw %d deliveries, engine reports %d jobs", a.Deliveries, res.Jobs)
	}
	check := func(name string, got, want float64) {
		if d := relDiff(got, want); d > auditTol {
			t.Errorf("audit %s = %.17g, engine %.17g (rel diff %.3g > %.0g)", name, got, want, d, auditTol)
		}
	}
	check("makespan", a.Makespan, res.Makespan)
	check("speedup", a.Speedup, res.Speedup)
	check("burstRatio", a.BurstRatio, res.BurstRatio)
	check("icUtil", a.ICUtil, res.ICUtil)
	check("ecUtil", a.ECUtil, res.ECUtil)
	return res, rec.Events()
}

// TestTotalRevocationFallsBackToIC revokes the entire external cloud early
// in the run: every job still completes (on the IC), and the audit replays
// the stream — rentals cut short, fallbacks and all — in exact agreement.
func TestTotalRevocationFallsBackToIC(t *testing.T) {
	cfg := engine.Config{
		NetSeed: 43,
		Faults: &engine.FaultConfig{
			ECRevocation: cluster.FaultModel{MTBF: 150},
		},
	}
	res, _ := runFaulted(t, cfg, sched.OrderPreserving{})
	if res.ECRevocations != 2 {
		t.Fatalf("ECRevocations = %d, want the whole fleet (2)", res.ECRevocations)
	}
	if res.Fallbacks == 0 {
		t.Fatal("total revocation produced no IC fallbacks")
	}
}

// refillConfig autoscales an EC fleet of one machine that revocations
// empty early (seed 3 revokes it within the first 600 s).
func refillConfig() engine.Config {
	return engine.Config{
		NetSeed:    3,
		ECMachines: 1,
		Autoscale:  &engine.AutoscaleConfig{Max: 5},
		Faults: &engine.FaultConfig{
			ECRevocation: cluster.FaultModel{MTBF: 1500},
			Seed:         3,
		},
	}
}

// refillAfterEmpty scans a run's events for the time revocations first
// emptied the EC fleet of initial size fleet, and the index of the first
// boot after it; each is -1 when it never happened.
func refillAfterEmpty(evs []trace.Event, fleet int) (emptied float64, boot int) {
	emptied = -1
	for i, ev := range evs {
		switch {
		case ev.Type == trace.MachineFailed && ev.Cluster == "ec" && ev.Fatal:
			fleet--
			if fleet == 0 && emptied < 0 {
				emptied = ev.T
			}
		case ev.Type == trace.AutoscaleBoot:
			if emptied >= 0 {
				return emptied, i
			}
			fleet = ev.Fleet
		case ev.Type == trace.AutoscaleDrain:
			fleet = ev.Fleet
		}
	}
	return emptied, -1
}

// TestAutoscaleRefillsRevokedFleet revokes the only machine of an
// autoscaled EC fleet. The schedulers burst nothing to an empty fleet, so
// no backlog asks for a machine: the autoscaler must boot one because the
// fleet fell below its minimum, within one control period plus the boot
// delay, and a later job must burst to it. The fault injector, stopped by
// the empty fleet, must resume and revoke a machine booted afterwards.
func TestAutoscaleRefillsRevokedFleet(t *testing.T) {
	cfg := refillConfig()
	res, evs := runFaulted(t, cfg, sched.OrderPreserving{})
	const period, bootDelay = 60, 120 // the AutoscaleConfig defaults
	emptied, boot := refillAfterEmpty(evs, cfg.ECMachines)
	if emptied < 0 {
		t.Fatalf("the fleet never emptied (%d revocations); the test needs it to", res.ECRevocations)
	}
	if boot < 0 || evs[boot].T > emptied+period+bootDelay {
		t.Fatalf("fleet emptied at %.0f s; no boot after it by %.0f s", emptied, emptied+period+bootDelay)
	}
	burstAfter, revokedAfter := 0, 0
	for _, ev := range evs[boot+1:] {
		switch {
		case ev.Type == trace.PlacementDecided && ev.Where == "EC":
			burstAfter++
		case ev.Type == trace.MachineFailed && ev.Cluster == "ec" && ev.Fatal:
			revokedAfter++
		}
	}
	if burstAfter == 0 {
		t.Fatalf("no job burst after the replacement booted at %.0f s", evs[boot].T)
	}
	if revokedAfter == 0 {
		t.Fatal("no machine booted after the fleet emptied was ever revoked")
	}
}

// TestAutoscaleRefillNeedsBudget spends the budget before revocation
// empties the fleet of TestAutoscaleRefillsRevokedFleet: the admission gate
// would keep every job off a replacement, so the autoscaler must not rent
// one. The first budget is below the cheapest charge, so nothing ever
// bursts; the second runs out mid-run.
func TestAutoscaleRefillNeedsBudget(t *testing.T) {
	for _, budget := range []float64{0.05, 0.7} {
		cfg := refillConfig()
		cfg.Cost = &cost.Config{OnDemandRate: 0.10, Budget: budget}
		res, evs := runFaulted(t, cfg, sched.OrderPreserving{})
		// spent is when the budget left fell below the cheapest charge.
		spent, cheapest := -1.0, cost.NewMeter(*cfg.Cost).Charge(0)
		if budget < cheapest {
			spent = 0
		}
		for _, ev := range evs {
			if spent < 0 && ev.Type == trace.CostAccrued && budget-ev.Total < cheapest {
				spent = ev.T
			}
		}
		emptied, boot := refillAfterEmpty(evs, cfg.ECMachines)
		if spent < 0 || emptied < spent || res.BudgetDenials == 0 {
			t.Fatalf("budget %v: spent at %.0f s, fleet emptied at %.0f s, %d denials; the test needs a budget spent before the fleet empties",
				budget, spent, emptied, res.BudgetDenials)
		}
		if boot >= 0 {
			t.Fatalf("budget %v spent at %.0f s: the fleet emptied at %.0f s and a machine booted at %.0f s",
				budget, spent, emptied, evs[boot].T)
		}
	}
}

// TestICCrashRecovery crashes internal machines and repairs them: aborted
// tasks are resubmitted immediately (no retry budget consumed) and nothing
// is lost.
func TestICCrashRecovery(t *testing.T) {
	cfg := engine.Config{
		NetSeed: 43,
		Faults: &engine.FaultConfig{
			ICCrash: cluster.FaultModel{MTBF: 600, MTTR: 300},
		},
	}
	res, _ := runFaulted(t, cfg, sched.OrderPreserving{})
	if res.ICCrashes == 0 {
		t.Fatal("no IC crashes were injected")
	}
}

// TestTransferStallRecovery stalls and aborts primary-link transfers: the
// affected jobs re-enter through the slack rule or fall back, and every job
// is still delivered.
func TestTransferStallRecovery(t *testing.T) {
	cfg := engine.Config{
		NetSeed: 43,
		Faults: &engine.FaultConfig{
			TransferStalls: netsim.StallModel{MeanTimeBetween: 600, Timeout: 60},
		},
	}
	res, _ := runFaulted(t, cfg, &sched.SIBS{})
	if res.TransferStalls == 0 || res.TransferAborts == 0 {
		t.Fatalf("stalls/aborts = %d/%d, want both positive", res.TransferStalls, res.TransferAborts)
	}
}

// TestFaultConfigRejections pins the invalid fault configurations Run must
// refuse.
func TestFaultConfigRejections(t *testing.T) {
	g, err := workload.NewGenerator(workload.Config{Seed: 42, Batches: 1})
	if err != nil {
		t.Fatal(err)
	}
	batches := g.Generate()
	cases := []struct {
		name string
		cfg  engine.Config
		want string
	}{
		{
			"permanent IC crash",
			engine.Config{Faults: &engine.FaultConfig{ICCrash: cluster.FaultModel{MTBF: 100}}},
			"ICCrash",
		},
		{
			"negative MTBF",
			engine.Config{Faults: &engine.FaultConfig{ECRevocation: cluster.FaultModel{MTBF: -1}}},
			"ECRevocation",
		},
		{
			"stall without timeout",
			engine.Config{Faults: &engine.FaultConfig{TransferStalls: netsim.StallModel{MeanTimeBetween: 100}}},
			"TransferStalls",
		},
	}
	for _, tc := range cases {
		_, err := engine.Run(tc.cfg, sched.OrderPreserving{}, batches)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

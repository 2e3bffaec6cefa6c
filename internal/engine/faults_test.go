package engine_test

// Fault-injection acceptance tests. The central invariant: no job is ever
// lost — every fault-disturbed job is delivered, through retry or IC
// fallback — and the independent trace auditor recomputes the SLA metrics
// from the fault run's stream in exact agreement with the engine.

import (
	"strings"
	"testing"

	"cloudburst/internal/cluster"
	"cloudburst/internal/engine"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

// auditTol bounds the engine-vs-auditor disagreement on recomputed metrics.
const auditTol = 1e-9

// runFaulted executes one traced fault run and cross-checks it against the
// auditor's independent replay.
func runFaulted(t *testing.T, cfg engine.Config, s sched.Scheduler) (*engine.Result, *trace.Audit) {
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
	return res, a
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

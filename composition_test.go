package cloudburst

import (
	"testing"
)

// TestCompositionExtraSite crosses one extra external cloud with every
// other feature axis through the public API. Each row must run verified
// with an exact audit, serve split by a checkpoint to the fingerprint of
// the unsplit serve, and exercise the feature it names in the run or the
// unsplit serve.
func TestCompositionExtraSite(t *testing.T) {
	const d1, d2 = 1700, 1900
	rows := []struct {
		name string
		set  func(o *Options)
		// exercised reports whether the row's feature was used, from the
		// run's report and the events of the run and the unsplit serve.
		exercised func(r *Report, evs []TraceEvent) bool
	}{
		{"plain", func(o *Options) {}, func(r *Report, _ []TraceEvent) bool { return true }},
		{"shards", func(o *Options) { o.Shards = &ShardOptions{Count: 2} },
			func(_ *Report, evs []TraceEvent) bool {
				return countEvents(evs, func(ev TraceEvent) bool { return ev.Shard == 2 }) > 0
			}},
		{"faults", func(o *Options) {
			o.Faults = &FaultOptions{ECRevocationMTBF: 400, TransferStallMTBF: 600, TransferStallTimeout: 90}
		}, func(r *Report, _ []TraceEvent) bool { return r.ECRevocations > 0 && r.TransferStalls > 0 }},
		{"cost-budget", func(o *Options) { o.Cost = &CostOptions{Budget: 2} },
			func(r *Report, _ []TraceEvent) bool { return r.CostCommitted > 0 && r.BudgetDenials > 0 }},
		{"autoscale", func(o *Options) { o.ECMachines, o.AutoscaleECMax = 1, 5 },
			func(_ *Report, evs []TraceEvent) bool {
				return countEvents(evs, func(ev TraceEvent) bool { return ev.Type.String() == "AutoscaleBoot" }) > 0
			}},
		{"resched-sibs", func(o *Options) { o.Rescheduling, o.Scheduler = true, SIBS },
			func(_ *Report, evs []TraceEvent) bool {
				return countEvents(evs, func(ev TraceEvent) bool {
					return ev.Type.String() == "Rescheduled" && ev.From == "EC"
				}) > 0
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := Options{WorkloadSeed: 3, NetSeed: 3, ExtraECSites: []ECSiteSpec{{Machines: 2}}}
			row.set(&o)

			run := o
			rec := NewTraceRecorder()
			run.Trace, run.Verify, run.Audit = rec, true, true
			r, err := Run(run)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			a, err := r.Audit()
			if err != nil {
				t.Fatal(err)
			}
			assertAuditMatchesReport(t, r, a)
			if len(r.SiteBursts) != 1 || r.SiteBursts[0] == 0 {
				t.Fatalf("extra site bursts %v, want one site with work", r.SiteBursts)
			}

			serve := ServiceOptions{Options: o, WindowSec: 600}
			serve.Verify = true
			unsplit := serve
			unsplit.DurationSec = d1 + d2
			unsplit.Trace = rec
			whole, _, _ := serveAndWait(t, nil, unsplit)
			if !row.exercised(r, rec.Events()) {
				t.Fatalf("neither the run nor the serve exercised %s", row.name)
			}
			first := serve
			first.DurationSec, first.CheckpointAtEnd = d1, true
			_, _, svc := serveAndWait(t, nil, first)
			blob, err := svc.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			second, _, _ := serveAndWait(t, nil, ServiceOptions{
				Options: Options{Verify: true}, DurationSec: d2, Restore: blob,
			})
			if second.Fingerprint != whole.Fingerprint || second.TraceEvents != whole.TraceEvents {
				t.Fatalf("split fingerprint %016x/%d, unsplit %016x/%d",
					second.Fingerprint, second.TraceEvents, whole.Fingerprint, whole.TraceEvents)
			}
		})
	}
}

func countEvents(evs []TraceEvent, match func(TraceEvent) bool) int {
	n := 0
	for _, ev := range evs {
		if match(ev) {
			n++
		}
	}
	return n
}

package cloudburst

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"
)

// The acceptance bar for the tracing subsystem: for a seeded run of every
// scheduler, the auditor — replaying only the event stream — must reproduce
// the Report's makespan, burst ratio, utilizations and OO series within
// 1e-9, and verify the slack admission of every bursted job.

func auditOpts(s SchedulerName) Options {
	o := fastOpts(s)
	o.Batches = 4
	o.MeanJobsPerBatch = 10
	o.Audit = true
	return o
}

func assertAuditMatchesReport(t *testing.T, r *Report, a *Audit) {
	t.Helper()
	const eps = 1e-9
	if !a.OK() {
		t.Fatalf("audit found issues: %v", a.Issues)
	}
	if math.Abs(a.Makespan-r.Makespan) > eps {
		t.Fatalf("makespan: audit %v vs report %v", a.Makespan, r.Makespan)
	}
	if math.Abs(a.Speedup-r.Speedup) > eps {
		t.Fatalf("speedup: audit %v vs report %v", a.Speedup, r.Speedup)
	}
	if math.Abs(a.BurstRatio-r.BurstRatio) > eps {
		t.Fatalf("burst ratio: audit %v vs report %v", a.BurstRatio, r.BurstRatio)
	}
	if math.Abs(a.ICUtil-r.ICUtil) > eps {
		t.Fatalf("IC util: audit %v vs report %v", a.ICUtil, r.ICUtil)
	}
	if math.Abs(a.ECUtil-r.ECUtil) > eps {
		t.Fatalf("EC util: audit %v vs report %v", a.ECUtil, r.ECUtil)
	}
	if a.Jobs != r.Jobs {
		t.Fatalf("jobs: audit %d vs report %d", a.Jobs, r.Jobs)
	}
	oo := r.OOSeries()
	if len(a.OOSeries) != len(oo) {
		t.Fatalf("OO series length: audit %d vs report %d", len(a.OOSeries), len(oo))
	}
	for i := range oo {
		if math.Abs(a.OOSeries[i].T-oo[i].T) > eps || math.Abs(a.OOSeries[i].V-oo[i].V) > eps {
			t.Fatalf("OO[%d]: audit (%v,%v) vs report (%v,%v)",
				i, a.OOSeries[i].T, a.OOSeries[i].V, oo[i].T, oo[i].V)
		}
	}
}

func TestAuditReproducesReport(t *testing.T) {
	for _, s := range Schedulers() {
		t.Run(string(s), func(t *testing.T) {
			r, err := Run(auditOpts(s))
			if err != nil {
				t.Fatal(err)
			}
			a, err := r.Audit()
			if err != nil {
				t.Fatal(err)
			}
			assertAuditMatchesReport(t, r, a)
			// Every gated burst must have been verified against its slack
			// admission; ICOnly neither bursts nor gates.
			burstedJobs := 0
			for _, c := range r.Completions() {
				if c.Bursted {
					burstedJobs++
				}
			}
			if a.Bursted != burstedJobs {
				t.Fatalf("bursted: audit %d vs report %d", a.Bursted, burstedJobs)
			}
			if s != ICOnly && a.Checked != a.Bursted {
				t.Fatalf("only %d/%d bursts slack-verified", a.Checked, a.Bursted)
			}
			if len(a.AdmissionViolations) != 0 {
				t.Fatalf("scheduler admitted bursts above threshold: %+v", a.AdmissionViolations)
			}
		})
	}
}

func TestAuditFromJSONLStream(t *testing.T) {
	// Stream a seeded Op run to JSONL, read it back, and audit the decoded
	// events: the round trip must lose nothing the auditor needs.
	var buf bytes.Buffer
	jsonl, rec := NewJSONLTracer(&buf), NewTraceRecorder()
	o := auditOpts(OrderPreserving)
	o.Trace = MultiTracer(jsonl, rec)
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTraceJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	direct := rec.Events()
	if len(events) != len(direct) {
		t.Fatalf("JSONL stream has %d events, recorder %d", len(events), len(direct))
	}
	a, err := AuditTraceEvents(events, AuditOptions{
		OOSampleInterval: 120, // the report default
	})
	if err != nil {
		t.Fatal(err)
	}
	assertAuditMatchesReport(t, r, a)
}

func TestAuditWithAutoscale(t *testing.T) {
	o := auditOpts(OrderPreserving)
	o.Batches = 5
	o.MeanJobsPerBatch = 15
	o.ECMachines = 1
	o.AutoscaleECMax = 6
	o.AutoscaleTargetWait = 120
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.ECPeakMachines <= 1 {
		t.Fatal("autoscaler never engaged under this seed")
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	// The rented-machine-time utilization must be reconstructed from the
	// boot/drain events alone and still match the engine's accounting.
	assertAuditMatchesReport(t, r, a)
}

func TestAuditWithRescheduling(t *testing.T) {
	o := auditOpts(Greedy)
	o.Rescheduling = true
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	assertAuditMatchesReport(t, r, a)
}

func TestAuditWithExtraSites(t *testing.T) {
	o := auditOpts(Greedy)
	o.ExtraECSites = []ECSiteSpec{{Machines: 2, UploadMeanBW: 900 * 1024, DownloadMeanBW: 1200 * 1024}}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	assertAuditMatchesReport(t, r, a)
}

func TestAuditWithOutagesAndChunking(t *testing.T) {
	o := auditOpts(SIBS)
	o.OutageMTBF = 900
	o.OutageMeanDuration = 120
	o.OutageThrottle = 0.1
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	assertAuditMatchesReport(t, r, a)
	if r.ChunksCreated != a.Chunks {
		t.Fatalf("chunks: audit %d vs report %d", a.Chunks, r.ChunksCreated)
	}
}

func TestTracingOffByDefault(t *testing.T) {
	r, err := Run(fastOpts(OrderPreserving))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Audit(); err == nil {
		t.Fatal("Audit on an unaudited run did not error")
	}
	// Recording is Options.Trace's job alone: a recorder sees the stream of
	// an unaudited run, and the run still cannot be audited.
	o := fastOpts(OrderPreserving)
	rec := NewTraceRecorder()
	o.Trace = rec
	if r, err = Run(o); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder on Options.Trace saw no events")
	}
	if _, err := r.Audit(); err == nil {
		t.Fatal("Audit on a recorded but unaudited run did not error")
	}
}

func TestTraceDeterminism(t *testing.T) {
	run := func() []TraceEvent {
		rec := NewTraceRecorder()
		o := auditOpts(OrderPreserving)
		o.Trace = rec
		if _, err := Run(o); err != nil {
			t.Fatal(err)
		}
		return rec.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between identical runs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

// TestLiveAuditEqualsReplay pins the wiring of Options.Audit: the auditor
// that folds a run's stream live must finish on exactly the audit a replay
// of the same run's recording gives under the report's OO settings. Both
// sides run the same Auditor.Emit, so this guards what the auditor is
// attached to and how it is built; the checks themselves are guarded by
// the audit tests above and in internal/trace.
func TestLiveAuditEqualsReplay(t *testing.T) {
	rows := []compFeature{
		{"plain-op", func(*Options) {}, func(*Report, []TraceEvent) bool { return true }},
		compResched,
		compFaults,
		{"cost-budget-autoscale", func(o *Options) {
			o.Cost = &CostOptions{OnDemandRate: 0.10, Budget: 2}
			compAutoscale.set(o)
		}, func(r *Report, evs []TraceEvent) bool { return r.BudgetDenials > 0 && compAutoscale.fired(r, evs) }},
		compShards,
		{"extra-site-outages", func(o *Options) {
			o.ExtraECSites = []ECSiteSpec{{Machines: 2}}
			o.OutageMTBF = 900
		}, func(r *Report, evs []TraceEvent) bool {
			return r.SiteBursts[0] > 0 && hasEvent(evs, func(ev TraceEvent) bool { return ev.Type.String() == "OutageStart" })
		}},
		{"greedy-oo-settings", func(o *Options) {
			o.Scheduler, o.OOToleranceJobs, o.OOSampleInterval = Greedy, 3, 45
		}, func(r *Report, _ []TraceEvent) bool { oo := r.OOSeries(); return oo[1].T-oo[0].T == 45 }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := Options{WorkloadSeed: 3, NetSeed: 3}
			row.set(&o)
			rec := NewTraceRecorder()
			o.Trace, o.Audit = rec, true
			r, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if !row.fired(r, rec.Events()) {
				t.Fatalf("the run did not exercise %s", row.name)
			}
			assertLiveAuditEqualsReplay(t, r, rec)
		})
	}
	t.Run("serve-split", func(t *testing.T) {
		// The continuation of a checkpoint-split serve replays its prefix
		// silently; its auditor folds only what its recorder records.
		const d1, d2 = 1700, 1900
		first := ServiceOptions{
			Options:     Options{WorkloadSeed: 3, NetSeed: 3},
			WindowSec:   600,
			DurationSec: d1, CheckpointAtEnd: true,
		}
		_, _, svc := serveAndWait(t, nil, first)
		blob, err := svc.Checkpoint()
		if err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		rec := NewTraceRecorder()
		second, _, _ := serveAndWait(t, nil, ServiceOptions{
			Options: Options{Trace: rec, Audit: true}, DurationSec: d2, Restore: blob,
		})
		assertLiveAuditEqualsReplay(t, second.Report, rec)
	})
}

func assertLiveAuditEqualsReplay(t *testing.T, r *Report, rec *TraceRecorder) {
	t.Helper()
	live, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := AuditTraceEvents(rec.Events(), AuditOptions{
		OOSampleInterval: r.opts.OOSampleInterval,
		OOTolerance:      r.opts.OOToleranceJobs,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two of the auditor's issue loops range over maps.
	sort.Strings(live.Issues)
	sort.Strings(replay.Issues)
	if !reflect.DeepEqual(live, replay) {
		t.Fatalf("live audit differs from the replay of its recording:\nlive   %s\nreplay %s",
			live.Summary(), replay.Summary())
	}
}

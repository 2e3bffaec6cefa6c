package cloudburst

// Tests for the context-aware, typed-error public API: OptionError and
// errors.As, Options.Normalize, RunContext/CompareContext cancellation, the
// preset constructors, and fault-injection runs through the root package.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestOptionErrorTyped(t *testing.T) {
	_, err := Run(Options{Batches: -3})
	if err == nil {
		t.Fatal("invalid options did not error")
	}
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("error %T does not unwrap to *OptionError", err)
	}
	if oe.Field != "Batches" || oe.Value != -3 || oe.Reason == "" {
		t.Fatalf("OptionError = %+v, want Field=Batches Value=-3 with a reason", *oe)
	}
	if got := oe.Error(); got != "cloudburst: Batches -3 must not be negative" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestOptionErrorOnFaults(t *testing.T) {
	o := fastOpts(OrderPreserving)
	o.Faults = &FaultOptions{ECRevocationMTBF: -1}
	_, err := Run(o)
	var oe *OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("fault validation error %v is not an *OptionError", err)
	}
	if oe.Field != "Faults.ECRevocationMTBF" {
		t.Fatalf("Field = %q", oe.Field)
	}
}

func TestOptionErrorOnUnknownNames(t *testing.T) {
	var oe *OptionError
	if _, err := Run(Options{Scheduler: "nope", Batches: 1}); !errors.As(err, &oe) || oe.Field != "Scheduler" {
		t.Fatalf("unknown scheduler: err=%v", err)
	}
	if _, err := Run(Options{Bucket: "nope", Batches: 1}); !errors.As(err, &oe) || oe.Field != "Bucket" {
		t.Fatalf("unknown bucket: err=%v", err)
	}
}

// TestRejectedCombinations pins the written list of rejected option
// combinations (README, "Rejected combinations"). Each combination the
// library rejects returns an *OptionError naming its field, and every pair
// of feature toggles passes Options.Validate.
func TestRejectedCombinations(t *testing.T) {
	_, _, svc := serveAndWait(t, nil, ServiceOptions{DurationSec: 600, WindowSec: 300, CheckpointAtEnd: true})
	blob, err := svc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// A cancelled context stops a service the checks wrongly accept.
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	serve := func(o ServiceOptions) func() error {
		return func() error {
			o.WindowSec = 300
			svc, err := Serve(stopped, o)
			if err == nil {
				for range svc.Reports() {
				}
				_, _ = svc.Wait()
			}
			return err
		}
	}
	rejected := []struct {
		name, field string
		err         func() error
	}{
		{"MaxJobs with Restore", "MaxJobs", serve(ServiceOptions{Restore: blob, MaxJobs: 10})},
		{"CheckpointAtEnd without DurationSec", "CheckpointAtEnd", serve(ServiceOptions{CheckpointAtEnd: true})},
		{"CheckpointAtEnd with MaxJobs", "CheckpointAtEnd",
			serve(ServiceOptions{CheckpointAtEnd: true, DurationSec: 600, MaxJobs: 10})},
		{"ECMachines above AutoscaleECMax", "ECMachines",
			func() error { return Options{ECMachines: 6, AutoscaleECMax: 5}.Validate() }},
	}
	for _, c := range rejected {
		var oe *OptionError
		if err := c.err(); !errors.As(err, &oe) || oe.Field != c.field {
			t.Errorf("%s: got %v, want an *OptionError on %s", c.name, err, c.field)
		}
	}

	toggles := []struct {
		name string
		set  func(o *Options)
	}{
		{"faults", func(o *Options) {
			o.Faults = &FaultOptions{ECRevocationMTBF: 400, ICCrashMTBF: 700, TransferStallMTBF: 600}
		}},
		{"cost-budget", func(o *Options) { o.Cost = &CostOptions{Budget: 2} }},
		{"shards", func(o *Options) { o.Shards = &ShardOptions{Count: 2} }},
		{"autoscale", func(o *Options) { o.AutoscaleECMax = 5 }},
		{"resched", func(o *Options) { o.Rescheduling = true }},
		{"extra-site", func(o *Options) { o.ExtraECSites = []ECSiteSpec{{Machines: 2}} }},
		{"outages", func(o *Options) { o.OutageMTBF = 1500 }},
		{"audit", func(o *Options) { o.Audit = true }},
		{"verify", func(o *Options) { o.Verify = true }},
	}
	for i, a := range toggles {
		for _, b := range toggles[i+1:] {
			var o Options
			a.set(&o)
			b.set(&o)
			if err := o.Validate(); err != nil {
				t.Errorf("%s with %s rejected: %v", a.name, b.name, err)
			}
		}
	}
}

func TestNormalizeIdempotentAndEquivalent(t *testing.T) {
	withFaults := func(o Options) Options {
		o.Faults = &FaultOptions{ECRevocationMTBF: 400, ICCrashMTBF: 600, ICCrashMTTR: 300}
		return o
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"fast op", fastOpts(OrderPreserving)},
		{"fast sibs with faults", withFaults(fastOpts(SIBS))},
		{"paper testbed with faults", withFaults(mustPreset("paper"))},
		{"high variance with faults", withFaults(mustPreset("highvar"))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			n := o.Normalize()
			if !reflect.DeepEqual(n, n.Normalize()) {
				t.Fatal("Normalize is not idempotent")
			}
			if n.ICMachines != 8 || n.ECMachines != 2 || n.DiurnalAmplitude != 0.3 {
				t.Fatalf("unexpected defaults: %+v", n)
			}
			if o.Faults != nil && (n.Faults == nil || n.Faults.MaxRetries == 0) {
				t.Fatalf("fault options not normalized: %+v", n.Faults)
			}
			// Normalizing must not change behaviour: the explicit-default run
			// is the same simulation as the zero-default run.
			r1, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(n)
			if err != nil {
				t.Fatal(err)
			}
			if r1.String() != r2.String() || r1.Makespan != r2.Makespan {
				t.Fatalf("normalized run diverged:\n%s\n%s", r1, r2)
			}
			if o.Fingerprint() != n.Fingerprint() {
				t.Fatal("fingerprint differs before and after Normalize")
			}
		})
	}
}

func TestNormalizeAutoscaleFleet(t *testing.T) {
	n := Options{AutoscaleECMax: 4}.Normalize()
	if n.ECMachines != 1 {
		t.Fatalf("autoscaled fleet normalizes to %d machines, want 1", n.ECMachines)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, fastOpts(OrderPreserving))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCompareContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := CompareContext(ctx, fastOpts(OrderPreserving))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCompareContextErrors pins how a failing run surfaces: an invalid
// option as the run's own *OptionError, a run that panics (here, in its
// tracer) as a *SweepCellError naming the lowest failing scheduler instead
// of a crash.
func TestCompareContextErrors(t *testing.T) {
	bad := fastOpts(OrderPreserving)
	bad.Batches = -1
	_, want := Run(bad)
	_, err := CompareContext(context.Background(), bad, Greedy, SIBS)
	var oe *OptionError
	if !errors.As(err, &oe) || err.Error() != want.Error() {
		t.Fatalf("err = %v, want the run's own %v", err, want)
	}
	o := fastOpts(OrderPreserving)
	o.Trace = panicTracer{}
	_, err = CompareContext(context.Background(), o, Greedy, SIBS)
	var ce *SweepCellError
	if !errors.As(err, &ce) || ce.Panic == "" || ce.Cell.Scheduler != string(Greedy) {
		t.Fatalf("err = %v, want Greedy's panic as a *SweepCellError", err)
	}
}

type panicTracer struct{}

func (panicTracer) Emit(TraceEvent) { panic("tracer failed") }

func TestCompareContextMatchesSequentialRuns(t *testing.T) {
	o := fastOpts(OrderPreserving)
	reports, err := CompareContext(context.Background(), o, Greedy, OrderPreserving, SIBS)
	if err != nil {
		t.Fatal(err)
	}
	names := []SchedulerName{Greedy, OrderPreserving, SIBS}
	for i, name := range names {
		oo := o
		oo.Scheduler = name
		want, err := Run(oo)
		if err != nil {
			t.Fatal(err)
		}
		if reports[i].Scheduler != name {
			t.Fatalf("report %d is %s, want %s", i, reports[i].Scheduler, name)
		}
		if reports[i].String() != want.String() {
			t.Fatalf("concurrent Compare diverged from sequential Run for %s:\n%s\n%s",
				name, reports[i], want)
		}
	}
}

// mustPreset returns a registry preset, panicking on an unknown name.
func mustPreset(name string) Options {
	o, err := Preset(name)
	if err != nil {
		panic(err)
	}
	return o
}

func TestPresets(t *testing.T) {
	pt := mustPreset("paper")
	if pt.ICMachines != 8 || pt.ECMachines != 2 || pt.Scheduler != OrderPreserving {
		t.Fatalf("paper preset = %+v", pt)
	}
	hv := mustPreset("highvar")
	if hv.JitterCV != 0.5 {
		t.Fatalf("highvar preset JitterCV = %v, want 0.5", hv.JitterCV)
	}
	hv.JitterCV = pt.JitterCV
	if !reflect.DeepEqual(pt, hv) {
		t.Fatal("highvar preset differs from paper beyond JitterCV")
	}
	if _, err := Run(pt); err != nil {
		t.Fatalf("paper preset run failed: %v", err)
	}
}

func TestFaultRunThroughRootAPI(t *testing.T) {
	o := fastOpts(OrderPreserving)
	o.Batches = 5
	o.MeanJobsPerBatch = 12
	o.Audit = true
	o.Faults = &FaultOptions{ECRevocationMTBF: 150}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.ECRevocations != 2 {
		t.Fatalf("ECRevocations = %d, want the whole fleet (2)", r.ECRevocations)
	}
	if r.Fallbacks == 0 {
		t.Fatal("total revocation produced no fallbacks")
	}
	if !strings.Contains(r.String(), "faults") {
		t.Fatalf("report does not summarize faults:\n%s", r)
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("fault run audit found issues: %v", a.Issues)
	}
	// Determinism under faults: the same options reproduce the same report.
	again, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != r.String() || again.Makespan != r.Makespan {
		t.Fatal("fault run is not deterministic")
	}
}

func TestFaultRunWithICCrashAndStalls(t *testing.T) {
	o := fastOpts(SIBS)
	o.Batches = 5
	o.MeanJobsPerBatch = 12
	o.Audit = true
	o.Faults = &FaultOptions{
		ICCrashMTBF:       500,
		TransferStallMTBF: 500,
	}
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.ICCrashes == 0 && r.TransferStalls == 0 {
		t.Skip("no faults landed inside this run's horizon")
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("audit issues: %v", a.Issues)
	}
}

package cloudburst

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// fastOpts keeps public-API tests quick.
func fastOpts(s SchedulerName) Options {
	return Options{
		Scheduler:        s,
		Bucket:           Uniform,
		Batches:          3,
		MeanJobsPerBatch: 8,
		WorkloadSeed:     1,
		NetSeed:          1,
	}
}

func TestRunDefaults(t *testing.T) {
	r, err := Run(Options{Batches: 2, MeanJobsPerBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scheduler != OrderPreserving || r.Bucket != Uniform {
		t.Fatalf("defaults wrong: %s/%s", r.Scheduler, r.Bucket)
	}
	if r.Makespan <= 0 || r.Jobs == 0 {
		t.Fatalf("empty report: %+v", r)
	}
}

func TestRunVerify(t *testing.T) {
	// A verified run must behave identically to an unverified one: the
	// checker is a passive tracer.
	o := fastOpts(SIBS)
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Verify = true
	verified, err := Run(o)
	if err != nil {
		t.Fatalf("verified run failed: %v", err)
	}
	if verified.Makespan != plain.Makespan || verified.BurstRatio != plain.BurstRatio {
		t.Fatalf("verify changed the run: %v/%v vs %v/%v",
			verified.Makespan, verified.BurstRatio, plain.Makespan, plain.BurstRatio)
	}
	// Verify composes with Audit and fault injection.
	o.Audit = true
	o.Faults = &FaultOptions{ECRevocationMTBF: 400}
	if _, err := Run(o); err != nil {
		t.Fatalf("verified faulty run failed: %v", err)
	}
	// Compare gives each run its own checker.
	o.Audit = false
	if _, err := Compare(o, Greedy, SIBS); err != nil {
		t.Fatalf("verified compare failed: %v", err)
	}
}

// TestRunVerifyStealBack verifies a rescheduled run in which steal-backs
// withdraw queued uploads for the IC: each Rescheduled EC→IC event closes
// the upload its placement opened, so the checker passes the run.
func TestRunVerifyStealBack(t *testing.T) {
	rec := NewTraceRecorder()
	r, err := Run(Options{Rescheduling: true, Verify: true, WorkloadSeed: 1, NetSeed: 1, Trace: rec})
	if err != nil {
		t.Fatalf("verified rescheduled run failed: %v", err)
	}
	steals := countEvents(rec.Events(), func(ev TraceEvent) bool {
		return ev.Type.String() == "Rescheduled" && ev.From == "EC"
	})
	if steals == 0 || r.Jobs == 0 {
		t.Fatalf("%d steal-backs over %d jobs; the test needs at least one", steals, r.Jobs)
	}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, s := range Schedulers() {
		r, err := Run(fastOpts(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if r.Jobs < r.OriginalJobs {
			t.Fatalf("%s: lost jobs", s)
		}
		if r.Speedup <= 0 {
			t.Fatalf("%s: speedup %v", s, r.Speedup)
		}
		if s == ICOnly && r.BurstRatio != 0 {
			t.Fatalf("ICOnly bursted")
		}
	}
}

func TestRunAllBuckets(t *testing.T) {
	for _, b := range Buckets() {
		o := fastOpts(Greedy)
		o.Bucket = b
		r, err := Run(o)
		if err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		if r.Bucket != b {
			t.Fatalf("bucket echo wrong: %s", r.Bucket)
		}
	}
}

func TestRunUnknownNames(t *testing.T) {
	if _, err := Run(Options{Scheduler: "nope", Batches: 1}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := Run(Options{Bucket: "nope", Batches: 1}); err == nil {
		t.Fatal("unknown bucket accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(fastOpts(OrderPreserving))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastOpts(OrderPreserving))
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.BurstRatio != b.BurstRatio {
		t.Fatal("identical options produced different reports")
	}
}

func TestCompareSharesWorkload(t *testing.T) {
	rs, err := Compare(fastOpts(ICOnly), ICOnly, Greedy, OrderPreserving)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("reports = %d", len(rs))
	}
	// Same workload: identical original job counts and t_seq.
	for _, r := range rs[1:] {
		if r.OriginalJobs != rs[0].OriginalJobs {
			t.Fatal("compare used different workloads")
		}
		if math.Abs(r.TSeq-rs[0].TSeq) > 1e-9 {
			t.Fatal("compare t_seq differs")
		}
	}
}

func TestCompareDefaultSet(t *testing.T) {
	rs, err := Compare(fastOpts(ICOnly))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("default compare set = %d schedulers", len(rs))
	}
}

func TestReportString(t *testing.T) {
	r, err := Run(fastOpts(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"Greedy", "makespan", "burst", "valleys"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestReportSeries(t *testing.T) {
	o := fastOpts(Greedy)
	o.OOToleranceJobs = 2
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	oo := r.OOSeries()
	if len(oo) == 0 {
		t.Fatal("empty OO series")
	}
	for i := 1; i < len(oo); i++ {
		if oo[i].V < oo[i-1].V {
			t.Fatal("OO series must be non-decreasing")
		}
	}
	comp := r.CompletionSeries()
	if len(comp) != r.Jobs {
		t.Fatalf("completion series %d != jobs %d", len(comp), r.Jobs)
	}
	waits := r.InOrderWaitSeries()
	if len(waits) != r.Jobs-1 {
		t.Fatalf("wait series %d != jobs-1 %d", len(waits), r.Jobs-1)
	}
}

func TestRelativeOOSeries(t *testing.T) {
	rs, err := Compare(fastOpts(ICOnly), ICOnly, OrderPreserving)
	if err != nil {
		t.Fatal(err)
	}
	rel := rs[1].RelativeOOSeries(rs[0])
	if len(rel) == 0 {
		t.Fatal("empty relative series")
	}
	self := rs[0].RelativeOOSeries(rs[0])
	for _, p := range self {
		if p.V != 0 {
			t.Fatal("self-relative series must be zero")
		}
	}
}

func TestCompletionsAccessor(t *testing.T) {
	r, err := Run(fastOpts(Greedy))
	if err != nil {
		t.Fatal(err)
	}
	cs := r.Completions()
	if len(cs) != r.Jobs {
		t.Fatalf("completions %d != jobs %d", len(cs), r.Jobs)
	}
	bursted := 0
	for i, c := range cs {
		if c.Seq != i {
			t.Fatalf("completions not seq-ordered at %d", i)
		}
		if c.CompletedAt < c.ArrivedAt {
			t.Fatal("completion precedes arrival")
		}
		if c.Bursted {
			bursted++
		}
	}
	if got := float64(bursted) / float64(len(cs)); math.Abs(got-r.BurstRatio) > 1e-9 {
		t.Fatalf("bursted fraction %v != burst ratio %v", got, r.BurstRatio)
	}
}

func TestBatchBurstRatios(t *testing.T) {
	o := fastOpts(Greedy)
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ratios := r.BatchBurstRatios()
	if len(ratios) != o.Batches {
		t.Fatalf("batch ratios = %d, want %d", len(ratios), o.Batches)
	}
	var weighted float64
	counts := map[int]int{}
	for _, c := range r.Completions() {
		counts[c.Batch]++
	}
	for b, ratio := range ratios {
		weighted += ratio * float64(counts[b])
	}
	if math.Abs(weighted/float64(r.Jobs)-r.BurstRatio) > 1e-9 {
		t.Fatal("eq. (12) identity violated: batch ratios don't aggregate to the run ratio")
	}
}

func TestSeriesCSV(t *testing.T) {
	csv := SeriesCSV("oo", []Point{{0, 1}, {120, 2.5}})
	if !strings.HasPrefix(csv, "t,oo\n") || !strings.Contains(csv, "120.000,2.5") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestHighJitterOption(t *testing.T) {
	o := fastOpts(OrderPreserving)
	o.JitterCV = 0.5
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
}

func TestSlackMarginReducesBursting(t *testing.T) {
	loose := fastOpts(OrderPreserving)
	loose.Batches = 4
	loose.MeanJobsPerBatch = 12
	tight := loose
	tight.SlackMarginSec = 1e9
	a, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	if b.BurstRatio != 0 {
		t.Fatalf("infinite margin still bursted %v", b.BurstRatio)
	}
	if a.BurstRatio == 0 {
		t.Fatal("loaded Op run never bursted")
	}
}

func TestReschedulingOption(t *testing.T) {
	o := fastOpts(OrderPreserving)
	o.Rescheduling = true
	r, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.Jobs == 0 {
		t.Fatal("rescheduled run empty")
	}
}

func TestTicketReports(t *testing.T) {
	r, err := Run(fastOpts(OrderPreserving))
	if err != nil {
		t.Fatal(err)
	}
	generous := r.FixedTickets(1e9)
	if generous.KeptRatio != 1 || generous.Kept != r.Jobs {
		t.Fatalf("generous ticket not kept: %+v", generous)
	}
	impossible := r.FixedTickets(0.001)
	if impossible.Kept != 0 || impossible.MeanLateness <= 0 {
		t.Fatalf("impossible ticket kept: %+v", impossible)
	}
	// The minimal uniform ticket must keep its fraction.
	q := r.MinimalUniformTicket(0.9)
	rep := r.FixedTickets(q)
	if rep.KeptRatio < 0.9 {
		t.Fatalf("minimal ticket %v kept only %v", q, rep.KeptRatio)
	}
	// Proportional and positional policies return sane shapes.
	if p := r.ProportionalTickets(600, 10); p.Jobs != r.Jobs {
		t.Fatal("proportional jobs mismatch")
	}
	if p := r.PositionalTickets(300, 60); p.KeptRatio < 0 || p.KeptRatio > 1 {
		t.Fatal("positional ratio out of range")
	}
}

func TestTicketsCorrelateWithOrdering(t *testing.T) {
	// The paper: the OO metric is "directly correlated" with ticket
	// satisfaction. A positional (in-order) promise must be kept at least
	// as often by the scheduler with the better ordered-output behaviour
	// on the same workload. We assert only the weaker sanity property that
	// both schedulers' reports are well-formed and comparable.
	rs, err := Compare(fastOpts(ICOnly), Greedy, OrderPreserving)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		rep := r.PositionalTickets(120, 45)
		if rep.Jobs != r.Jobs || rep.Kept > rep.Jobs {
			t.Fatalf("%s: malformed ticket report %+v", r.Scheduler, rep)
		}
	}
}

func TestOutageInjection(t *testing.T) {
	clean := fastOpts(Greedy)
	clean.Batches = 4
	clean.MeanJobsPerBatch = 12
	flaky := clean
	flaky.OutageMTBF = 300
	flaky.OutageMeanDuration = 120
	a, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(flaky)
	if err != nil {
		t.Fatal(err)
	}
	if b.Jobs != a.Jobs {
		t.Fatal("outages lost jobs")
	}
	// Hard outages on a bursting scheduler should not make things faster.
	if b.Makespan < a.Makespan*0.99 {
		t.Fatalf("outaged run faster than clean: %v vs %v", b.Makespan, a.Makespan)
	}
}

func TestOutageValidation(t *testing.T) {
	o := fastOpts(Greedy)
	o.OutageMTBF = 300
	o.OutageThrottle = 1.5 // invalid
	_, err := Run(o)
	if err == nil {
		t.Fatal("invalid throttle did not error")
	}
	if !strings.HasPrefix(err.Error(), "cloudburst:") {
		t.Fatalf("error not cloudburst-prefixed: %v", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Options)
		want string // substring of the expected error
	}{
		{"negative batches", func(o *Options) { o.Batches = -1 }, "Batches"},
		{"negative jobs per batch", func(o *Options) { o.MeanJobsPerBatch = -3 }, "MeanJobsPerBatch"},
		{"negative batch interval", func(o *Options) { o.BatchIntervalSec = -1 }, "BatchIntervalSec"},
		{"negative IC machines", func(o *Options) { o.ICMachines = -2 }, "ICMachines"},
		{"negative EC machines", func(o *Options) { o.ECMachines = -2 }, "ECMachines"},
		{"negative upload BW", func(o *Options) { o.UploadMeanBW = -1 }, "UploadMeanBW"},
		{"negative download BW", func(o *Options) { o.DownloadMeanBW = -1 }, "DownloadMeanBW"},
		{"amplitude above one", func(o *Options) { o.DiurnalAmplitude = 1.5 }, "DiurnalAmplitude"},
		{"negative amplitude", func(o *Options) { o.DiurnalAmplitude = -0.1 }, "DiurnalAmplitude"},
		{"negative jitter", func(o *Options) { o.JitterCV = -0.2 }, "JitterCV"},
		{"negative outage MTBF", func(o *Options) { o.OutageMTBF = -5 }, "OutageMTBF"},
		{"negative outage duration", func(o *Options) { o.OutageMTBF = 300; o.OutageMeanDuration = -1 }, "OutageMeanDuration"},
		{"throttle out of range", func(o *Options) { o.OutageMTBF = 300; o.OutageThrottle = -0.5 }, "OutageThrottle"},
		{"negative autoscale max", func(o *Options) { o.AutoscaleECMax = -1 }, "AutoscaleECMax"},
		{"negative boot delay", func(o *Options) { o.AutoscaleECMax = 4; o.AutoscaleBootDelay = -1 }, "AutoscaleBootDelay"},
		{"negative target wait", func(o *Options) { o.AutoscaleECMax = 4; o.AutoscaleTargetWait = -1 }, "AutoscaleTargetWait"},
		{"fleet above autoscale max", func(o *Options) { o.AutoscaleECMax = 2; o.ECMachines = 5 }, "AutoscaleECMax"},
		{"negative OO tolerance", func(o *Options) { o.OOToleranceJobs = -1 }, "OOToleranceJobs"},
		{"negative OO interval", func(o *Options) { o.OOSampleInterval = -60 }, "OOSampleInterval"},
		{"negative site machines", func(o *Options) { o.ExtraECSites = []ECSiteSpec{{Machines: -1}} }, "ExtraECSites[0].Machines"},
		{"negative site upload BW", func(o *Options) { o.ExtraECSites = []ECSiteSpec{{UploadMeanBW: -1}} }, "ExtraECSites[0].UploadMeanBW"},
		{"negative site jitter", func(o *Options) { o.ExtraECSites = []ECSiteSpec{{JitterCV: -1}} }, "ExtraECSites[0].JitterCV"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := fastOpts(OrderPreserving)
			tc.mut(&o)
			_, err := Run(o)
			if err == nil {
				t.Fatal("invalid options did not error")
			}
			if !strings.HasPrefix(err.Error(), "cloudburst:") {
				t.Fatalf("error not cloudburst-prefixed: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// The zero value plus defaults must stay valid.
	if _, err := Run(Options{Batches: 1, MeanJobsPerBatch: 2}); err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
}

// eachFloatOption calls visit with every float64 field reachable from v,
// named by its path as OptionError.Field names it: embedded structs add no
// prefix, nil struct pointers are allocated and empty struct slices get one
// element, so that every float option of the type is reached.
func eachFloatOption(v reflect.Value, path string, visit func(path string, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		visit(path, v)
	case reflect.Pointer:
		if v.Type().Elem().Kind() == reflect.Struct {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			eachFloatOption(v.Elem(), path, visit)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Struct {
			if v.Len() == 0 {
				v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			}
			for i := 0; i < v.Len(); i++ {
				eachFloatOption(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				continue
			}
			p := path
			if !sf.Anonymous {
				p = strings.TrimPrefix(path+"."+sf.Name, ".")
			}
			eachFloatOption(v.Field(i), p, visit)
		}
	}
}

// TestNonFiniteOptionsRejected sets each float field reachable from
// ServiceOptions, one at a time, to NaN and to +Inf. Each must fail
// validation with an *OptionError naming the field; unchecked, such values
// hang Run inside the workload generator or crash the simulation.
func TestNonFiniteOptionsRejected(t *testing.T) {
	inOptions := map[string]bool{}
	eachFloatOption(reflect.ValueOf(&Options{}).Elem(), "", func(path string, _ reflect.Value) {
		inOptions[path] = true
	})
	var paths []string
	eachFloatOption(reflect.ValueOf(&ServiceOptions{}).Elem(), "", func(path string, _ reflect.Value) {
		paths = append(paths, path)
	})
	for _, want := range []string{"JitterCV", "ExtraECSites[0].OnDemandRate", "Faults.RetryBackoff", "Cost.Budget", "WindowSec"} {
		if !slices.Contains(paths, want) {
			t.Fatalf("float fields found %v, missing %s", paths, want)
		}
	}
	for _, path := range paths {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			var so ServiceOptions
			eachFloatOption(reflect.ValueOf(&so).Elem(), "", func(p string, f reflect.Value) {
				if p == path {
					f.SetFloat(bad)
				}
			})
			var oe *OptionError
			err := so.normalizeService().validateService(false)
			if !errors.As(err, &oe) || oe.Field != path {
				t.Errorf("Serve with %s = %v: got %v, want an *OptionError naming the field", path, bad, err)
			}
			if !inOptions[path] {
				continue
			}
			if err := so.Options.Validate(); !errors.As(err, &oe) || oe.Field != path {
				t.Errorf("Run with %s = %v: got %v, want an *OptionError naming the field", path, bad, err)
			}
		}
	}
}

func TestAutoscaleECOption(t *testing.T) {
	o := fastOpts(OrderPreserving)
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
		t.Fatalf("autoscaler never grew the fleet: peak %d", r.ECPeakMachines)
	}
	if r.ECMachineSeconds <= 0 {
		t.Fatal("no rental accounting")
	}
	fixed := o
	fixed.AutoscaleECMax = 0
	fixed.ECMachines = 6
	rf, err := Run(fixed)
	if err != nil {
		t.Fatal(err)
	}
	// The elastic fleet should rent meaningfully less machine time than
	// holding 6 machines for the whole run.
	if r.ECMachineSeconds >= rf.ECMachineSeconds {
		t.Fatalf("elastic rented %v >= fixed %v", r.ECMachineSeconds, rf.ECMachineSeconds)
	}
}

func TestExtraECSitesOption(t *testing.T) {
	o := fastOpts(OrderPreserving)
	o.Batches = 5
	o.MeanJobsPerBatch = 15
	o.ExtraECSites = []ECSiteSpec{{Machines: 2}}
	multi, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.SiteBursts) != 1 || len(multi.SiteUtils) != 1 {
		t.Fatalf("site diagnostics missing: %+v", multi)
	}
	single := o
	single.ExtraECSites = nil
	base, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	if multi.BurstRatio < base.BurstRatio {
		t.Fatalf("extra provider reduced bursting: %v vs %v", multi.BurstRatio, base.BurstRatio)
	}
}

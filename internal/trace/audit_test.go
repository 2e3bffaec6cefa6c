package trace

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// healthyStream is a minimal hand-built run: two IC jobs, one bursted job,
// all consistent. IC machines: 2, EC machines: 1, no autoscale.
func healthyStream() []Event {
	return []Event{
		{Type: RunConfigured, T: 0, ICMachines: 2, ECMachines: 1, ECSpeed: 1, Scheduler: "Op"},
		{Type: JobArrived, T: 0, JobID: 0, Seq: -1, Batch: 0, Arrival: 0, StdSeconds: 10, Bytes: 100, OutputBytes: 50},
		{Type: JobArrived, T: 0, JobID: 1, Seq: -1, Batch: 0, Arrival: 0, StdSeconds: 20, Bytes: 100, OutputBytes: 70},
		{Type: JobArrived, T: 0, JobID: 2, Seq: -1, Batch: 0, Arrival: 0, StdSeconds: 5, Bytes: 80, OutputBytes: 40},

		{Type: PlacementDecided, T: 0, JobID: 0, Seq: 0, Where: "IC", Gated: true, EstEC: 30, Threshold: 5},
		{Type: PlacementDecided, T: 0, JobID: 1, Seq: 1, Where: "IC", Gated: true, EstEC: 30, Threshold: 10},
		{Type: PlacementDecided, T: 0, JobID: 2, Seq: 2, Where: "EC", Gated: true, EstEC: 9, Threshold: 10},

		{Type: ComputeStart, T: 0, Cluster: "ic", Machine: 0, JobID: 0},
		{Type: ComputeStart, T: 0, Cluster: "ic", Machine: 1, JobID: 1},
		{Type: UploadStart, T: 0, JobID: 2, Seq: 2, Link: "upload", Bytes: 80},
		{Type: UploadEnd, T: 2, JobID: 2, Seq: 2, Link: "upload", Bytes: 80, BW: 40},
		{Type: ComputeStart, T: 2, Cluster: "ec", Machine: 0, JobID: 2},
		{Type: ComputeEnd, T: 7, Cluster: "ec", Machine: 0, JobID: 2},
		{Type: DownloadStart, T: 7, JobID: 2, Seq: 2, Link: "download", Bytes: 40},
		{Type: DownloadEnd, T: 8, JobID: 2, Seq: 2, Link: "download", Bytes: 40, BW: 40},
		{Type: ComputeEnd, T: 10, Cluster: "ic", Machine: 0, JobID: 0},
		{Type: ComputeEnd, T: 20, Cluster: "ic", Machine: 1, JobID: 1},

		{Type: JobDelivered, T: 8, JobID: 2, Seq: 2, Where: "EC", Arrival: 0, OutputBytes: 40},
		{Type: JobDelivered, T: 10, JobID: 0, Seq: 0, Where: "IC", Arrival: 0, OutputBytes: 50},
		{Type: JobDelivered, T: 20, JobID: 1, Seq: 1, Where: "IC", Arrival: 0, OutputBytes: 70},
	}
}

func TestAuditHealthyStream(t *testing.T) {
	a, err := AuditEvents(healthyStream(), AuditOptions{OOSampleInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("healthy stream flagged: %v", a.Issues)
	}
	if a.Makespan != 20 {
		t.Fatalf("makespan %v, want 20", a.Makespan)
	}
	if want := 35.0 / 20.0; a.Speedup != want {
		t.Fatalf("speedup %v, want %v", a.Speedup, want)
	}
	if want := 1.0 / 3.0; a.BurstRatio != want {
		t.Fatalf("burst ratio %v, want %v", a.BurstRatio, want)
	}
	// IC busy: 10 + 20 over 2 machines × 20 s window.
	if want := 30.0 / 40.0; math.Abs(a.ICUtil-want) > 1e-12 {
		t.Fatalf("IC util %v, want %v", a.ICUtil, want)
	}
	// EC busy: 5 s over 1 machine × 20 s window.
	if want := 5.0 / 20.0; math.Abs(a.ECUtil-want) > 1e-12 {
		t.Fatalf("EC util %v, want %v", a.ECUtil, want)
	}
	if a.Checked != 1 || len(a.Mispredictions) != 0 || len(a.AdmissionViolations) != 0 {
		t.Fatalf("slack verification wrong: %+v", a)
	}
	// Burst seq 2: realized 8 s ≤ threshold 10 s → clean.
	if c := a.Checks[0]; c.Realized != 8 || c.Violated {
		t.Fatalf("check wrong: %+v", c)
	}
	// OO at t=8: only seq 2 done — nothing consumable. At t=20 all 160 bytes.
	last := a.OOSeries[len(a.OOSeries)-1]
	if last.V != 160 {
		t.Fatalf("final OO %v, want 160", last.V)
	}
	if a.OOSeries[0].V != 0 {
		t.Fatalf("initial OO %v, want 0", a.OOSeries[0].V)
	}
	if !strings.Contains(a.Summary(), "integrity  clean") {
		t.Fatalf("summary: %s", a.Summary())
	}
}

// mutate returns the healthy stream with one event replaced or appended.
func mutate(f func([]Event) []Event) []Event {
	return f(healthyStream())
}

func TestAuditFlagsMisaccountedStreams(t *testing.T) {
	cases := []struct {
		name string
		evs  []Event
		want string // substring of an expected issue
	}{
		{
			"duplicate delivery",
			mutate(func(evs []Event) []Event {
				return append(evs, Event{Type: JobDelivered, T: 21, JobID: 1, Seq: 1, Where: "IC", OutputBytes: 70})
			}),
			"duplicate delivery",
		},
		{
			"delivery before arrival",
			mutate(func(evs []Event) []Event {
				for i := range evs {
					if evs[i].Type == JobDelivered && evs[i].JobID == 0 {
						evs[i].Arrival = 15 // claims to arrive after its delivery
					}
				}
				return evs
			}),
			"before arrival",
		},
		{
			"EC delivery without admission",
			mutate(func(evs []Event) []Event {
				for i := range evs {
					if evs[i].Type == PlacementDecided && evs[i].JobID == 2 {
						evs[i].Where = "IC" // the books say IC, the delivery says EC
					}
				}
				return evs
			}),
			"no placement admitted",
		},
		{
			"missing upload leg",
			mutate(func(evs []Event) []Event {
				out := evs[:0]
				for _, ev := range evs {
					if ev.Type == UploadEnd {
						continue
					}
					out = append(out, ev)
				}
				return out
			}),
			"no completed upload",
		},
		{
			"overlapping compute on one machine",
			mutate(func(evs []Event) []Event {
				return append(evs,
					Event{Type: ComputeStart, T: 3, Cluster: "ic", Machine: 0, JobID: 9},
					Event{Type: ComputeStart, T: 4, Cluster: "ic", Machine: 0, JobID: 10})
			}),
			"busy machine",
		},
		{
			"unended compute interval",
			mutate(func(evs []Event) []Event {
				return append(evs, Event{Type: ComputeStart, T: 19, Cluster: "ic", Machine: 0, JobID: 9})
			}),
			"never ended",
		},
		{
			"placement/delivery count mismatch",
			mutate(func(evs []Event) []Event {
				return append(evs, Event{Type: PlacementDecided, T: 0, JobID: 9, Seq: 3, Where: "IC"})
			}),
			"placements but",
		},
		{
			"chunk accounting broken",
			mutate(func(evs []Event) []Event {
				// Two chunks of job 1 with no matching extra deliveries:
				// 3 arrivals + 2 chunks − 1 parent = 4 ≠ 3 delivered.
				return append(evs,
					Event{Type: Chunked, T: 0, JobID: 9, Parent: 1},
					Event{Type: Chunked, T: 0, JobID: 10, Parent: 1})
			}),
			"job accounting",
		},
		{
			"missing RunConfigured",
			mutate(func(evs []Event) []Event { return evs[1:] }),
			"no RunConfigured",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := AuditEvents(tc.evs, AuditOptions{OOSampleInterval: 5})
			if err != nil {
				t.Fatal(err)
			}
			if a.OK() {
				t.Fatal("mis-accounted stream audited clean")
			}
			found := false
			for _, is := range a.Issues {
				if strings.Contains(is, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no issue mentioning %q in %v", tc.want, a.Issues)
			}
		})
	}
}

func TestAuditSlackViolations(t *testing.T) {
	// Admission estimate above its threshold → scheduler bug flagged.
	evs := mutate(func(evs []Event) []Event {
		for i := range evs {
			if evs[i].Type == PlacementDecided && evs[i].JobID == 2 {
				evs[i].EstEC = 12 // threshold is 10
			}
		}
		return evs
	})
	a, err := AuditEvents(evs, AuditOptions{OOSampleInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.AdmissionViolations) != 1 {
		t.Fatalf("admission violation not flagged: %+v", a)
	}

	// Realized round trip above the threshold → misprediction flagged.
	evs = mutate(func(evs []Event) []Event {
		for i := range evs {
			if evs[i].Type == PlacementDecided && evs[i].JobID == 2 {
				evs[i].Threshold = 6 // realized is 8
			}
		}
		return evs
	})
	a, err = AuditEvents(evs, AuditOptions{OOSampleInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Mispredictions) != 1 || !a.Mispredictions[0].Violated {
		t.Fatalf("misprediction not flagged: %+v", a)
	}
	if got := a.Mispredictions[0].EstimateError(); got != 8-9 {
		t.Fatalf("estimate error %v, want -1", got)
	}
}

func TestAuditElasticFleet(t *testing.T) {
	evs := []Event{
		{Type: RunConfigured, T: 0, ICMachines: 1, ECMachines: 1, ECSpeed: 1, Autoscale: true, Scheduler: "Op"},
		{Type: JobArrived, T: 0, JobID: 0, Seq: -1, StdSeconds: 10, OutputBytes: 10},
		{Type: PlacementDecided, T: 0, JobID: 0, Seq: 0, Where: "EC"},
		{Type: UploadStart, T: 0, JobID: 0, Seq: 0, Link: "upload", Bytes: 10},
		{Type: UploadEnd, T: 1, JobID: 0, Seq: 0, Link: "upload", Bytes: 10},
		// Machine 1 boots at t=5, drains at t=15: rents 10 s.
		{Type: AutoscaleBoot, T: 5, Cluster: "ec", Machine: 1, Fleet: 2},
		{Type: ComputeStart, T: 5, Cluster: "ec", Machine: 1, JobID: 0},
		{Type: ComputeEnd, T: 10, Cluster: "ec", Machine: 1, JobID: 0},
		{Type: AutoscaleDrain, T: 15, Cluster: "ec", Machine: 1, Fleet: 1},
		{Type: DownloadStart, T: 10, JobID: 0, Seq: 0, Link: "download", Bytes: 10},
		{Type: DownloadEnd, T: 11, JobID: 0, Seq: 0, Link: "download", Bytes: 10},
		{Type: JobDelivered, T: 20, JobID: 0, Seq: 0, Where: "EC", OutputBytes: 10},
	}
	a, err := AuditEvents(evs, AuditOptions{OOSampleInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("issues: %v", a.Issues)
	}
	// Rented: machine 0 for the full 20 s window + machine 1 for 10 s = 30 s.
	// Busy: 5 s. Fixed-fleet math (1 machine × 20 s) would say 0.25.
	if want := 5.0 / 30.0; math.Abs(a.ECUtil-want) > 1e-12 {
		t.Fatalf("elastic EC util %v, want %v", a.ECUtil, want)
	}
}

func TestAuditEmptyAndDeliveryFree(t *testing.T) {
	if _, err := AuditEvents(nil, AuditOptions{}); err == nil {
		t.Fatal("empty stream did not error")
	}
	a, err := AuditEvents([]Event{{Type: RunConfigured, T: 0, ICMachines: 1, ECMachines: 1}}, AuditOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.OK() {
		t.Fatal("delivery-free stream audited clean")
	}
}

// TestAuditBoundsDecodedStreams feeds the auditor streams whose numbers,
// not their length, would size its work: a delivery far in the future
// makes the OO grid huge, and past t = 1e18 the step falls below the float
// spacing so the grid never ends; a RunConfigured fleet of a billion EC
// machines costs nothing until its machines act.
func TestAuditBoundsDecodedStreams(t *testing.T) {
	cfg := Event{Type: RunConfigured, ICMachines: 1, ECMachines: 1}
	for _, d := range []struct{ arrival, end float64 }{{0, 1e8}, {0, 1e19}, {1e19, 1e19}} {
		evs := []Event{cfg, {Type: JobDelivered, T: d.end, Arrival: d.arrival}}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := AuditEvents(evs, AuditOptions{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Errorf("arrival %g, delivery %g: audit allocated %d bytes", d.arrival, d.end, got)
		}
		if a.OOSeries != nil || len(a.Issues) != 1 || !strings.Contains(a.Issues[0], "OO grid") {
			t.Errorf("arrival %g, delivery %g: %d OO points, issues %v", d.arrival, d.end, len(a.OOSeries), a.Issues)
		}
	}

	evs := healthyStream()
	evs[0].ECMachines, evs[0].Autoscale = 1e9, true
	a, err := AuditEvents(evs, AuditOptions{OOSampleInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The whole fleet is rented from t=0 to the makespan end at t=20.
	if want := 5 / (1e9 * 20.0); !a.OK() || a.ECUtil != want {
		t.Fatalf("EC util %v, want %v; issues %v", a.ECUtil, want, a.Issues)
	}
}

// TestAuditorReadsMidStream reads an Auditor while it folds: each read is
// a fresh audit that later events do not change, and the final read equals
// the replay of the whole stream.
func TestAuditorReadsMidStream(t *testing.T) {
	// Three duplicate RunConfigured events are fold issues that leave the
	// fold's issue list with spare capacity; the open compute interval is
	// the one issue a read appends.
	evs := healthyStream()
	for i := 0; i < 3; i++ {
		evs = append(evs, Event{Type: RunConfigured, T: 20})
	}
	evs = append(evs, Event{Type: ComputeStart, T: 25, Cluster: "ic", Machine: 0})
	au := NewAuditor(AuditOptions{OOSampleInterval: 5})
	for _, ev := range evs {
		au.Emit(ev)
	}
	mid, err := au.Audit()
	if err != nil {
		t.Fatal(err)
	}
	again, err := au.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Issues) != 4 || !reflect.DeepEqual(mid, again) {
		t.Fatalf("reads differ or miss issues:\n%s\n%s", mid.Summary(), again.Summary())
	}
	midIssues := append([]string(nil), mid.Issues...)
	rest := []Event{
		{Type: ComputeEnd, T: 26, Cluster: "ic", Machine: 0},
		{Type: RunConfigured, T: 30},
	}
	for _, ev := range rest {
		au.Emit(ev)
	}
	if !reflect.DeepEqual(mid.Issues, midIssues) {
		t.Fatalf("later events rewrote an earlier read's issues:\n%q\n%q", midIssues, mid.Issues)
	}
	final, err := au.Audit()
	if err != nil {
		t.Fatal(err)
	}
	want, err := AuditEvents(append(evs, rest...), AuditOptions{OOSampleInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(final, want) {
		t.Fatalf("fold differs from replay:\n%s\n%s", final.Summary(), want.Summary())
	}
}

// pricedStream is the healthy stream with a cost model attached: the EC
// machine on the clock for the whole run and the one burst's committed
// charge, all consistent under hourly billing at $0.10.
func pricedStream() []Event {
	var out []Event
	for _, ev := range healthyStream() {
		if ev.Type == RunConfigured {
			ev.BillingSec, ev.Rate, ev.Budget = 3600, 0.10, 1.0
			out = append(out, ev,
				Event{Type: RentalStarted, T: 0, JobID: -1, Cluster: "ec", Machine: 0, Rate: 0.10})
			continue
		}
		out = append(out, ev)
		if ev.Type == PlacementDecided && ev.JobID == 2 {
			out = append(out, Event{Type: CostAccrued, T: ev.T, JobID: 2, Amount: 0.10, Total: 0.10, Budget: 1.0})
		}
	}
	return append(out,
		Event{Type: RentalEnded, T: 20, JobID: -1, Cluster: "ec", Machine: 0, Rate: 0.10, Amount: 0.10, Total: 0.10})
}

func TestAuditCostReplayClean(t *testing.T) {
	a, err := AuditEvents(pricedStream(), AuditOptions{OOSampleInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("priced stream flagged: %v", a.Issues)
	}
	if !a.CostAudited || a.CostChecked != 1 || a.RentalsOpen != 0 {
		t.Fatalf("cost audit state: %+v", a)
	}
	if math.Abs(a.CostRental-0.10) > 1e-12 || math.Abs(a.CostCommitted-0.10) > 1e-12 {
		t.Fatalf("replayed totals: rental %v committed %v", a.CostRental, a.CostCommitted)
	}
	if a.CostBudget != 1.0 {
		t.Fatalf("budget = %v", a.CostBudget)
	}
	if !strings.Contains(a.Summary(), "cost") {
		t.Fatalf("summary lacks the cost line: %s", a.Summary())
	}
}

func TestAuditCostOpenRentalIsNotAnIssue(t *testing.T) {
	// A suspended/streaming prefix legitimately leaves rentals open: the
	// audit reports the count without flagging an issue.
	evs := pricedStream()
	evs = evs[:len(evs)-1] // drop the RentalEnded
	a, err := AuditEvents(evs, AuditOptions{OOSampleInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.OK() {
		t.Fatalf("open rental flagged: %v", a.Issues)
	}
	if a.RentalsOpen != 1 || a.CostRental != 0 {
		t.Fatalf("open rentals %d, rental total %v", a.RentalsOpen, a.CostRental)
	}
}

func TestAuditFlagsTamperedCostStreams(t *testing.T) {
	tamper := func(f func([]Event) []Event) []Event { return f(pricedStream()) }
	cases := []struct {
		name string
		evs  []Event
		want string
	}{
		{
			"tampered rental bill",
			tamper(func(evs []Event) []Event {
				evs[len(evs)-1].Amount = 0.09
				return evs
			}),
			"replay computes",
		},
		{
			"tampered rental running total",
			tamper(func(evs []Event) []Event {
				evs[len(evs)-1].Total = 0.30
				return evs
			}),
			"replay sums",
		},
		{
			"tampered committed total",
			tamper(func(evs []Event) []Event {
				for i := range evs {
					if evs[i].Type == CostAccrued {
						evs[i].Total = 0.42
					}
				}
				return evs
			}),
			"committed running total",
		},
		{
			"budget exceeded",
			tamper(func(evs []Event) []Event {
				for i := range evs {
					if evs[i].Type == CostAccrued {
						evs[i].Amount, evs[i].Total = 1.50, 1.50
					}
				}
				return evs
			}),
			"exceeds budget",
		},
		{
			"rental end without start",
			tamper(func(evs []Event) []Event {
				return append(evs, Event{Type: RentalEnded, T: 21, JobID: -1, Cluster: "ec", Machine: 9, Amount: 0.10, Total: 0.20})
			}),
			"without a start",
		},
		{
			"double rental",
			tamper(func(evs []Event) []Event {
				return append(evs, Event{Type: RentalStarted, T: 21, JobID: -1, Cluster: "ic", Machine: 0, Rate: 0.10},
					Event{Type: RentalStarted, T: 22, JobID: -1, Cluster: "ic", Machine: 0, Rate: 0.10})
			}),
			"already rented",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := AuditEvents(tc.evs, AuditOptions{OOSampleInterval: 5})
			if err != nil {
				t.Fatal(err)
			}
			if a.OK() {
				t.Fatal("tampered cost stream audited clean")
			}
			found := false
			for _, is := range a.Issues {
				if strings.Contains(is, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no issue contains %q: %v", tc.want, a.Issues)
			}
		})
	}
}

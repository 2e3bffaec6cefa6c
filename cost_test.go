package cloudburst

// Cost-model acceptance tests: the SLA auditor must replay every priced
// run's rental spend to 1e-9 from the trace alone (including the fault
// scenarios), budget-constrained runs must never commit past their budget
// under any scheduler, and the cost fields must round-trip through
// Normalize and Fingerprint.

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// pricedGoldenConfigs mirrors the golden configurations of the differential
// harness with a cost model attached — including the three fault scenarios.
func pricedGoldenConfigs() map[string]Options {
	withCost := func(o Options, c CostOptions) Options {
		o.Cost = &c
		return o
	}
	base := Options{Batches: 4, MeanJobsPerBatch: 10, WorkloadSeed: 1, NetSeed: 43}
	sched := func(s SchedulerName) Options { o := base; o.Scheduler = s; return o }
	withFaults := func(o Options, f FaultOptions) Options { o.Faults = &f; return o }
	autoscaled := sched(OrderPreserving)
	autoscaled.ECMachines = 1
	autoscaled.AutoscaleECMax = 6
	multi := sched(OrderPreserving)
	multi.Rescheduling = true
	multi.ExtraECSites = []ECSiteSpec{{Machines: 2, OnDemandRate: 0.20}}
	return map[string]Options{
		"greedy":       withCost(sched(Greedy), CostOptions{OnDemandRate: 0.10}),
		"op":           withCost(sched(OrderPreserving), CostOptions{OnDemandRate: 0.10}),
		"sibs":         withCost(sched(SIBS), CostOptions{OnDemandRate: 0.10}),
		"op-budget":    withCost(sched(OrderPreserving), CostOptions{OnDemandRate: 0.10, Budget: 0.25}),
		"op-minutes":   withCost(sched(OrderPreserving), CostOptions{OnDemandRate: 0.10, BillingIntervalSec: 60}),
		"op-autoscale": withCost(autoscaled, CostOptions{OnDemandRate: 0.10}),
		"op-multisite": withCost(multi, CostOptions{OnDemandRate: 0.10}),
		"op-ec-revoke": withCost(withFaults(sched(OrderPreserving), FaultOptions{ECRevocationMTBF: 400, ECRevocationWarning: 30}),
			CostOptions{OnDemandRate: 0.10, SpotRate: 0.03}),
		"op-ic-crash": withCost(withFaults(sched(OrderPreserving), FaultOptions{ICCrashMTBF: 600, ICCrashMTTR: 300}),
			CostOptions{OnDemandRate: 0.10}),
		"sibs-stall": withCost(withFaults(sched(SIBS), FaultOptions{TransferStallMTBF: 1200, TransferStallTimeout: 90}),
			CostOptions{OnDemandRate: 0.10, Budget: 0.50}),
	}
}

// TestAuditReplaysCostToTolerance is the acceptance criterion: for every
// priced golden configuration the independent auditor re-derives the total
// rental spend from the event stream alone, and the replay agrees with the
// engine's figure to 1e-9.
func TestAuditReplaysCostToTolerance(t *testing.T) {
	for name, o := range pricedGoldenConfigs() {
		o := o
		t.Run(name, func(t *testing.T) {
			o.Audit = true
			o.Verify = true
			r, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			a, err := r.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if !a.OK() {
				t.Fatalf("priced run audit found issues: %v", a.Issues)
			}
			if !a.CostAudited {
				t.Fatal("audit saw no cost events")
			}
			if d := math.Abs(a.CostRental - r.CostRental); d > 1e-9 {
				t.Fatalf("rental replay off by %.3g: audit %.12f, engine %.12f", d, a.CostRental, r.CostRental)
			}
			if d := math.Abs(a.CostCommitted - r.CostCommitted); d > 1e-9 {
				t.Fatalf("committed replay off by %.3g: audit %.12f, engine %.12f", d, a.CostCommitted, r.CostCommitted)
			}
			if a.RentalsOpen != 0 {
				t.Fatalf("finite run left %d rentals open", a.RentalsOpen)
			}
			if r.CostRental <= 0 {
				t.Fatal("priced run accrued no rental cost")
			}
			if !strings.Contains(r.String(), "cost") {
				t.Fatalf("report does not summarize cost:\n%s", r)
			}
		})
	}
}

// TestRentalCloseOutOrder pins the order in which a finite run bills the
// rentals still open at its end: by cluster name, then machine ID, so
// "ec10" bills before "ec2". Each RentalEnded carries the rental total
// after its own bill, so the totals must be the running sum in that order.
func TestRentalCloseOutOrder(t *testing.T) {
	sites := make([]ECSiteSpec, 11)
	for i := range sites {
		sites[i] = ECSiteSpec{Machines: 2, OnDemandRate: 0.05 + 0.01*float64(i)}
	}
	rec := NewTraceRecorder()
	r, err := Run(Options{Batches: 3, ExtraECSites: sites, Cost: &CostOptions{OnDemandRate: 0.10}, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	started := 0
	var ended []TraceEvent
	for _, ev := range rec.Events() {
		switch ev.Type.String() {
		case "RentalStarted":
			started++
		case "RentalEnded":
			ended = append(ended, ev)
		}
	}
	if started != 2+11*2 || len(ended) != started {
		t.Fatalf("%d rentals started, %d ended; want 24 each", started, len(ended))
	}
	total := 0.0
	for i, ev := range ended {
		if ev.T != ended[len(ended)-1].T {
			t.Fatalf("rental %s/%d ended at %v, before the close-out", ev.Cluster, ev.Machine, ev.T)
		}
		if i > 0 {
			prev := ended[i-1]
			if prev.Cluster > ev.Cluster || prev.Cluster == ev.Cluster && prev.Machine >= ev.Machine {
				t.Fatalf("close-out billed %s/%d after %s/%d", ev.Cluster, ev.Machine, prev.Cluster, prev.Machine)
			}
		}
		total += ev.Amount
		if ev.Total != total {
			t.Fatalf("bill %d (%s/%d) carries total %v, running sum %v", i, ev.Cluster, ev.Machine, ev.Total, total)
		}
	}
	if ended[4].Cluster != "ec10" || ended[len(ended)-1].Cluster != "ec9" {
		t.Fatalf("close-out order %s ... %s, want ec10 fifth and ec9 last", ended[4].Cluster, ended[len(ended)-1].Cluster)
	}
	if total != r.CostRental {
		t.Fatalf("close-out total %v, report %v", total, r.CostRental)
	}
}

// TestBudgetNeverExceeded is the admission-gate property: under every
// scheduler and a range of budgets, committed spend stays within budget,
// the run still delivers every job, and the invariant checker stays quiet.
func TestBudgetNeverExceeded(t *testing.T) {
	budgets := []float64{0.05, 0.15, 0.40, 1.00}
	for _, s := range []SchedulerName{Greedy, GreedyTracking, OrderPreserving, SIBS} {
		for _, b := range budgets {
			o := fastOpts(s)
			o.Batches = 4
			o.MeanJobsPerBatch = 10
			o.Cost = &CostOptions{OnDemandRate: 0.10, Budget: b}
			o.Verify = true
			r, err := Run(o)
			if err != nil {
				t.Fatalf("%s budget %.2f: %v", s, b, err)
			}
			if r.CostCommitted > b+1e-9 {
				t.Fatalf("%s committed %.9f past budget %.2f", s, r.CostCommitted, b)
			}
			if r.CostBudget != b {
				t.Fatalf("%s reports budget %v, want %v", s, r.CostBudget, b)
			}
			if r.Jobs == 0 {
				t.Fatalf("%s budget %.2f delivered no jobs", s, b)
			}
		}
	}
}

// TestBudgetGateRedirectsWorkToIC: a tight budget must reduce committed
// spend relative to an unlimited run without losing jobs — gated work runs
// on the internal cloud instead.
func TestBudgetGateRedirectsWorkToIC(t *testing.T) {
	o := fastOpts(OrderPreserving)
	o.Batches = 4
	o.MeanJobsPerBatch = 10
	o.Cost = &CostOptions{OnDemandRate: 0.10}
	free, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cost = &CostOptions{OnDemandRate: 0.10, Budget: 0.25}
	tight, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if free.CostCommitted <= 0.25 {
		t.Skipf("unlimited run committed only %.4f; budget cannot bind", free.CostCommitted)
	}
	if tight.CostCommitted >= free.CostCommitted {
		t.Fatalf("budget did not reduce committed spend: %.4f vs %.4f", tight.CostCommitted, free.CostCommitted)
	}
	if tight.Jobs != free.Jobs {
		t.Fatalf("budget lost jobs: %d vs %d", tight.Jobs, free.Jobs)
	}
	if tight.BurstRatio >= free.BurstRatio {
		t.Fatalf("budget did not lower the burst ratio: %.3f vs %.3f", tight.BurstRatio, free.BurstRatio)
	}
}

// TestCostNeutrality: attaching a cost model with an unlimited budget must
// not change the simulation — same makespan, same trace-visible schedule.
func TestCostNeutrality(t *testing.T) {
	o := fastOpts(SIBS)
	plain, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Cost = &CostOptions{OnDemandRate: 0.10}
	priced, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if priced.Makespan != plain.Makespan || priced.BurstRatio != plain.BurstRatio {
		t.Fatalf("unlimited-budget pricing changed the run: %v/%v vs %v/%v",
			priced.Makespan, priced.BurstRatio, plain.Makespan, plain.BurstRatio)
	}
}

func TestCostOptionsValidation(t *testing.T) {
	cases := []struct {
		field string
		cost  CostOptions
	}{
		{"Cost.OnDemandRate", CostOptions{OnDemandRate: -0.1}},
		{"Cost.SpotRate", CostOptions{SpotRate: -0.1}},
		{"Cost.BillingIntervalSec", CostOptions{BillingIntervalSec: -60}},
		{"Cost.Budget", CostOptions{Budget: -1}},
	}
	for _, tc := range cases {
		o := fastOpts(OrderPreserving)
		o.Cost = &tc.cost
		_, err := Run(o)
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Fatalf("%s: err = %v", tc.field, err)
		}
	}
	o := fastOpts(OrderPreserving)
	o.ExtraECSites = []ECSiteSpec{{OnDemandRate: -0.5}}
	_, err := Run(o)
	var oe *OptionError
	if !errors.As(err, &oe) || !strings.Contains(oe.Field, "OnDemandRate") {
		t.Fatalf("site rate: err = %v", err)
	}
}

func TestCostNormalizeAndFingerprintRoundTrip(t *testing.T) {
	o := fastOpts(OrderPreserving)
	o.Cost = &CostOptions{Budget: 0.5}
	n := o.Normalize()
	if n.Cost.OnDemandRate == 0 || n.Cost.BillingIntervalSec == 0 {
		t.Fatalf("cost defaults not filled: %+v", *n.Cost)
	}
	if !reflect.DeepEqual(n, n.Normalize()) {
		t.Fatal("Normalize not idempotent over cost fields")
	}
	if o.Fingerprint() != n.Fingerprint() {
		t.Fatal("fingerprint differs before and after cost normalization")
	}
	if !strings.Contains(n.Fingerprint(), "|cost=") {
		t.Fatalf("fingerprint lacks the cost segment: %s", n.Fingerprint())
	}

	// Pricing must be part of the configuration identity...
	p := fastOpts(OrderPreserving)
	p.Cost = &CostOptions{Budget: 0.75}
	if o.Fingerprint() == p.Fingerprint() {
		t.Fatal("different budgets share a fingerprint")
	}
	// ...and its absence must keep the pre-cost fingerprints stable.
	if strings.Contains(fastOpts(OrderPreserving).Fingerprint(), "cost=") {
		t.Fatal("unpriced fingerprint mentions cost")
	}
}

func TestPresetRegistry(t *testing.T) {
	names := Presets()
	if !reflect.DeepEqual(names, []string{"highvar", "outage", "paper"}) {
		t.Fatalf("Presets() = %v", names)
	}
	for _, name := range names {
		o, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o, o.Normalize()) {
			t.Fatalf("preset %q is not fully normalized", name)
		}
		prof, err := SweepProfileFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Name != name || prof.UploadMeanBW != o.UploadMeanBW || prof.JitterCV != o.JitterCV {
			t.Fatalf("profile for %q diverges from its preset: %+v", name, prof)
		}
	}

	_, err := Preset("nope")
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "Preset" {
		t.Fatalf("unknown preset: err = %v", err)
	}
	if !strings.Contains(err.Error(), "highvar") {
		t.Fatalf("rejection does not list the registry: %v", err)
	}
	if _, err := SweepProfileFor("nope"); !errors.As(err, &oe) {
		t.Fatalf("SweepProfileFor untyped rejection: %v", err)
	}
}

// TestAdviseEndToEnd drives the full advisor data flow: a small sweep with
// a no-burst baseline and a bursting scheduler writes its resume manifest,
// and Advise turns that job history into per-scenario recommendations.
func TestAdviseEndToEnd(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "sweep.manifest")
	spec := SweepSpec{
		Schedulers:       []string{"ICOnly", "Op"},
		Buckets:          []string{"uniform"},
		SeedCount:        2,
		Batches:          3,
		MeanJobsPerBatch: 8,
		Costs:            []SweepCostSet{{Name: "ondemand", OnDemandRate: 0.10}},
	}
	if _, err := SweepContext(context.Background(), spec, SweepConfig{ManifestPath: manifest}); err != nil {
		t.Fatal(err)
	}

	advice, err := Advise(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if len(advice) != 2 { // one scenario per seed
		t.Fatalf("advice for %d scenario(s), want 2", len(advice))
	}
	for _, a := range advice {
		if !a.BaselineIsICOnly || a.Baseline.Sched != "ICOnly" {
			t.Fatalf("baseline is %q (ICOnly=%v)", a.Baseline.Sched, a.BaselineIsICOnly)
		}
		if a.Best.Sched != "Op" {
			t.Fatalf("best scheduler = %q", a.Best.Sched)
		}
		if strings.Contains(a.Scenario, "|sched=") {
			t.Fatalf("scenario key still carries the scheduler: %s", a.Scenario)
		}
		if a.SecondsSaved > 0 != a.Burst {
			t.Fatalf("recommendation inconsistent: saved %.0fs, burst=%v", a.SecondsSaved, a.Burst)
		}
		if a.Burst && a.Best.Metrics.CostRental > 0 && a.CostPerHourSaved <= 0 {
			t.Fatalf("burst recommendation with no price per hour saved: %+v", a)
		}
	}
}

func TestAdviseErrorsAreTyped(t *testing.T) {
	var ce *CostError
	_, err := Advise(filepath.Join(t.TempDir(), "missing.manifest"))
	if !errors.As(err, &ce) || ce.Path == "" {
		t.Fatalf("missing manifest: err = %v", err)
	}
	if !strings.HasPrefix(err.Error(), "cloudburst: cost: ") {
		t.Fatalf("message prefix: %q", err.Error())
	}

	empty := filepath.Join(t.TempDir(), "empty.manifest")
	if err := os.WriteFile(empty, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(empty); !errors.As(err, &ce) {
		t.Fatalf("empty manifest: err = %v", err)
	}

	// A single-scheduler history has nothing to compare.
	solo := filepath.Join(t.TempDir(), "solo.manifest")
	spec := SweepSpec{Schedulers: []string{"Op"}, Buckets: []string{"uniform"},
		SeedCount: 1, Batches: 2, MeanJobsPerBatch: 5}
	if _, err := SweepContext(context.Background(), spec, SweepConfig{ManifestPath: solo}); err != nil {
		t.Fatal(err)
	}
	if _, err := Advise(solo); !errors.As(err, &ce) || !strings.Contains(ce.Reason, "comparable") {
		t.Fatalf("solo history: err = %v", err)
	}
}

// TestSweepCostAxis expands a grid over two cost sets and checks the cost
// axis end to end: cell expansion, per-cell metrics, and the Pareto
// frontier over the results.
func TestSweepCostAxis(t *testing.T) {
	spec := SweepSpec{
		Schedulers:       []string{"Op"},
		Buckets:          []string{"uniform"},
		SeedCount:        1,
		Batches:          3,
		MeanJobsPerBatch: 8,
		Costs: []SweepCostSet{
			{Name: "free"},
			{Name: "ondemand", OnDemandRate: 0.10},
		},
	}
	results, err := Sweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	byCost := map[string]SweepResult{}
	for _, r := range results {
		byCost[r.Cell.Cost] = r
	}
	if r := byCost["free"]; r.Metrics.CostRental != 0 {
		t.Fatalf("free cell accrued cost: %+v", r.Metrics)
	}
	if r := byCost["ondemand"]; r.Metrics.CostRental <= 0 {
		t.Fatalf("priced cell accrued nothing: %+v", r.Metrics)
	}
	if byCost["free"].Metrics.Makespan != byCost["ondemand"].Metrics.Makespan {
		t.Fatal("unlimited-budget pricing changed a sweep cell's makespan")
	}

	front := SweepParetoFront(results)
	if len(front) == 0 {
		t.Fatal("empty Pareto frontier")
	}
	// Both cells share a makespan, so only the cheaper one is non-dominated.
	if len(front) != 1 || front[0].Cost != 0 {
		t.Fatalf("frontier = %+v, want the free cell only", front)
	}
}

func TestCellOptionsUnknownCostSet(t *testing.T) {
	spec := SweepSpec{Schedulers: []string{"Op"}, Buckets: []string{"uniform"}, SeedCount: 1}
	n := spec.Normalize()
	cells := n.Cells()
	cells[0].Cost = "nope"
	_, err := CellOptions(n, cells[0])
	var se *SweepSpecError
	if !errors.As(err, &se) || se.Field != "costs" {
		t.Fatalf("unknown cost set: err = %v", err)
	}
	// Cells recorded before the cost axis existed carry no cost name and
	// must keep running with pricing off.
	cells[0].Cost = ""
	o, err := CellOptions(n, cells[0])
	if err != nil || o.Cost != nil {
		t.Fatalf("pre-axis cell: opts.Cost = %v, err = %v", o.Cost, err)
	}
}

package cloudburst

import (
	"math"
	"testing"
)

// TestCompositionExtraSite crosses one extra external cloud with every
// other feature axis through the public API. Each row must run verified
// with an exact audit, serve split by a checkpoint to the fingerprint of
// the unsplit serve, and exercise the feature it names in the run or the
// unsplit serve.
func TestCompositionExtraSite(t *testing.T) {
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
			rec := NewTraceRecorder()
			r, _ := runAudited(t, o, rec)
			if len(r.SiteBursts) != 1 || r.SiteBursts[0] == 0 {
				t.Fatalf("extra site bursts %v, want one site with work", r.SiteBursts)
			}
			serveSplit(t, o, rec)
			if !row.exercised(r, rec.Events()) {
				t.Fatalf("neither the run nor the serve exercised %s", row.name)
			}
		})
	}
}

// runAudited runs o verified and audited, recording its events into rec,
// and checks the audit against the report.
func runAudited(t *testing.T, o Options, rec *TraceRecorder) (*Report, *Audit) {
	t.Helper()
	o.Trace, o.Verify, o.Audit = rec, true, true
	r, err := Run(o)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	a, err := r.Audit()
	if err != nil {
		t.Fatal(err)
	}
	assertAuditMatchesReport(t, r, a)
	return r, a
}

// serveSplit serves o verified for 3,600 s in one piece, recording into rec
// unless it is nil, and again split by a checkpoint at 1,700 s. The split
// serve must end on the unsplit serve's fingerprint. It returns the unsplit
// report and the restored half's report.
func serveSplit(t *testing.T, o Options, rec *TraceRecorder) (whole, second *ServeReport) {
	t.Helper()
	const d1, d2 = 1700, 1900
	serve := ServiceOptions{Options: o, WindowSec: 600}
	serve.Verify = true
	unsplit := serve
	unsplit.DurationSec = d1 + d2
	if rec != nil {
		unsplit.Trace = rec
	}
	whole, _, _ = serveAndWait(t, nil, unsplit)
	first := serve
	first.DurationSec, first.CheckpointAtEnd = d1, true
	_, _, svc := serveAndWait(t, nil, first)
	blob, err := svc.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	second, _, _ = serveAndWait(t, nil, ServiceOptions{
		Options: Options{Verify: true}, DurationSec: d2, Restore: blob,
	})
	if second.Fingerprint != whole.Fingerprint || second.TraceEvents != whole.TraceEvents {
		t.Fatalf("split fingerprint %016x/%d, unsplit %016x/%d",
			second.Fingerprint, second.TraceEvents, whole.Fingerprint, whole.TraceEvents)
	}
	return whole, second
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

// TestCompositionCost crosses cost with a budget with every other feature
// axis through the public API. Each row must run verified with an audit
// whose cost replay matches the report and leaves no rental open, serve
// split by a checkpoint to the fingerprint and rental accrual of the
// unsplit serve, and fire the rental-ledger path it names in the run.
func TestCompositionCost(t *testing.T) {
	rows := []struct {
		name string
		set  func(o *Options)
		// exercised reports whether the row's ledger path fired, from the
		// run's report and its rental ledger.
		exercised func(r *Report, l rentalLedger) bool
	}{
		{"plain", func(o *Options) {},
			func(_ *Report, l rentalLedger) bool { return len(l.early) == 0 && l.closed == l.started }},
		{"revocation", func(o *Options) {
			o.Faults = &FaultOptions{ECRevocationMTBF: 400, ECRevocationWarning: 30}
		}, func(r *Report, l rentalLedger) bool { return r.ECRevocations > 0 && l.endedAt("MachineFailed") > 0 }},
		{"autoscale", func(o *Options) { o.ECMachines, o.AutoscaleECMax = 1, 5 },
			func(_ *Report, l rentalLedger) bool { return l.booted > 0 && l.endedAt("AutoscaleDrain") > 0 }},
		{"shards", func(o *Options) { o.Shards = &ShardOptions{Count: 2} },
			func(_ *Report, l rentalLedger) bool { return l.chargedByShard2 > 0 && l.closed == l.started }},
		{"resched-sibs", func(o *Options) {
			// Budget 2 runs out before any steal-back; 4 still binds.
			o.Rescheduling, o.Scheduler, o.Cost.Budget = true, SIBS, 4
		}, func(_ *Report, l rentalLedger) bool { return l.chargedStolenBack > 0 && l.closed == l.started }},
		{"extra-site", func(o *Options) { o.ExtraECSites = []ECSiteSpec{{Machines: 2, OnDemandRate: 0.25}} },
			func(r *Report, l rentalLedger) bool {
				return r.SiteBursts[0] > 0 && l.rates["ec"] == 0.10 && l.rates["ec1"] == 0.25 && l.closed == l.started
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := Options{WorkloadSeed: 3, NetSeed: 3, Cost: &CostOptions{OnDemandRate: 0.10, Budget: 2}}
			row.set(&o)
			rec := NewTraceRecorder()
			r, a := runAudited(t, o, rec)
			if !a.CostAudited || math.Abs(a.CostRental-r.CostRental) > 1e-9 ||
				math.Abs(a.CostCommitted-r.CostCommitted) > 1e-9 {
				t.Fatalf("cost replay: audit rental %v committed %v, report %v/%v",
					a.CostRental, a.CostCommitted, r.CostRental, r.CostCommitted)
			}
			if a.RentalsOpen != 0 {
				t.Fatalf("finite run left %d rentals open", a.RentalsOpen)
			}
			if r.BudgetDenials == 0 || r.CostCommitted > o.Cost.Budget+1e-9 {
				t.Fatalf("budget %v: %d denials, committed %v", o.Cost.Budget, r.BudgetDenials, r.CostCommitted)
			}
			if l := readLedger(rec.Events()); !row.exercised(r, l) {
				t.Fatalf("the run did not exercise %s: %+v", row.name, l)
			}

			whole, second := serveSplit(t, o, nil)
			if second.CostRental != whole.CostRental || whole.CostRental <= 0 {
				t.Fatalf("split rental accrual %v, unsplit %v", second.CostRental, whole.CostRental)
			}
		})
	}
}

// compFeature is one feature axis of TestCompositionPairs: how a row turns
// it on, and whether it fired, from the run's report and the events of the
// run and the unsplit serve.
type compFeature struct {
	name  string
	set   func(o *Options)
	fired func(r *Report, evs []TraceEvent) bool
}

func hasEvent(evs []TraceEvent, match func(TraceEvent) bool) bool {
	return countEvents(evs, match) > 0
}

var (
	compFaults = compFeature{"faults", func(o *Options) {
		o.Faults = &FaultOptions{
			ECRevocationMTBF: 400, ECRevocationWarning: 30, ICCrashMTBF: 700,
			TransferStallMTBF: 600, TransferStallTimeout: 90,
		}
	}, func(r *Report, _ []TraceEvent) bool {
		return r.ECRevocations > 0 && r.ICCrashes > 0 && r.TransferStalls > 0
	}}
	compShards = compFeature{"shards", func(o *Options) { o.Shards = &ShardOptions{Count: 2} },
		func(_ *Report, evs []TraceEvent) bool {
			return hasEvent(evs, func(ev TraceEvent) bool { return ev.Shard == 2 })
		}}
	compAutoscale = compFeature{"autoscale", func(o *Options) { o.ECMachines, o.AutoscaleECMax = 1, 5 },
		func(_ *Report, evs []TraceEvent) bool {
			return hasEvent(evs, func(ev TraceEvent) bool { return ev.Type.String() == "AutoscaleBoot" })
		}}
	compResched = compFeature{"rescheduling", func(o *Options) { o.Rescheduling, o.Scheduler = true, SIBS },
		func(_ *Report, evs []TraceEvent) bool {
			return hasEvent(evs, func(ev TraceEvent) bool { return ev.Type.String() == "Rescheduled" })
		}}
)

// bootAfterEmpty reports whether, in some run or serve of evs, the
// autoscaler booted a machine after revocations first emptied the EC
// fleet.
func bootAfterEmpty(evs []TraceEvent) bool {
	fleet, emptied := 0, false
	for _, ev := range evs {
		switch ev.Type.String() {
		case "RunConfigured":
			fleet, emptied = ev.ECMachines, false
		case "MachineFailed":
			if ev.Cluster == "ec" && ev.Fatal {
				fleet--
				emptied = emptied || fleet == 0
			}
		case "AutoscaleBoot":
			if emptied {
				return true
			}
			fleet = ev.Fleet
		case "AutoscaleDrain":
			fleet = ev.Fleet
		}
	}
	return false
}

// TestCompositionPairs crosses the feature axes that the extra-site and
// cost matrices leave open, pair by pair, plus one row with every feature
// on. Each row must run verified with an exact audit, serve split by a
// checkpoint to the fingerprint of the unsplit serve, and fire each
// feature it names in the run or the unsplit serve. The faults × autoscale
// row must also refill the fleet after revocations empty it. The shards
// rows run the sharded placement rounds under the checker.
func TestCompositionPairs(t *testing.T) {
	// The features the pair rows do not cross: they only fire here.
	others := compFeature{"extra site, budget and outages", func(o *Options) {
		o.ExtraECSites = []ECSiteSpec{{Machines: 2}}
		o.Cost = &CostOptions{OnDemandRate: 0.10, Budget: 4}
		o.OutageMTBF = 1500
	}, func(r *Report, evs []TraceEvent) bool {
		return r.SiteBursts[0] > 0 && r.BudgetDenials > 0 &&
			hasEvent(evs, func(ev TraceEvent) bool { return ev.Type.String() == "OutageStart" })
	}}
	rows := []struct {
		name     string
		features []compFeature
		refill   bool // a boot must follow the fleet's first emptying
	}{
		{"faults-shards", []compFeature{compFaults, compShards}, false},
		{"faults-autoscale", []compFeature{compFaults, compAutoscale}, true},
		{"faults-resched", []compFeature{compFaults, compResched}, false},
		{"shards-autoscale", []compFeature{compShards, compAutoscale}, false},
		{"shards-resched", []compFeature{compShards, compResched}, false},
		{"autoscale-resched", []compFeature{compAutoscale, compResched}, false},
		{"everything", []compFeature{others, compShards, compFaults, compAutoscale, compResched}, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := Options{WorkloadSeed: 3, NetSeed: 3}
			for _, f := range row.features {
				f.set(&o)
			}
			rec := NewTraceRecorder()
			r, _ := runAudited(t, o, rec)
			serveSplit(t, o, rec)
			for _, f := range row.features {
				if !f.fired(r, rec.Events()) {
					t.Fatalf("%s never fired", f.name)
				}
			}
			if row.refill && !bootAfterEmpty(rec.Events()) {
				t.Fatal("no boot after revocations emptied the fleet")
			}
		})
	}
}

// rentalLedger summarizes a finite run's rental events: how many rentals
// started (and how many of those were boots after t=0), how many the
// close-out at the last delivery ended, the events that ended the others
// earlier, and the rate each cluster rents at. It also counts the burst
// charges that a shard-2 placement or a later steal-back touched.
type rentalLedger struct {
	started, booted, closed int
	early                   []string // type of the event each early rental end coincides with
	rates                   map[string]float64
	chargedByShard2         int
	chargedStolenBack       int
}

func (l rentalLedger) endedAt(cause string) int {
	n := 0
	for _, c := range l.early {
		if c == cause {
			n++
		}
	}
	return n
}

func readLedger(evs []TraceEvent) rentalLedger {
	l := rentalLedger{rates: map[string]float64{}}
	end := 0.0
	type machine struct {
		cluster string
		id      int
	}
	leaves := map[machine]TraceEvent{} // drain or fatal failure per machine
	shard2, stolen, charged := map[int]bool{}, map[int]bool{}, map[int]bool{}
	for _, ev := range evs {
		switch ev.Type.String() {
		case "JobDelivered":
			end = math.Max(end, ev.T)
		case "AutoscaleDrain":
			leaves[machine{ev.Cluster, ev.Machine}] = ev
		case "MachineFailed":
			if ev.Fatal {
				leaves[machine{ev.Cluster, ev.Machine}] = ev
			}
		case "PlacementDecided":
			if ev.Shard == 2 && ev.Where == "EC" {
				shard2[ev.JobID] = true
			}
		case "Rescheduled":
			if ev.From == "EC" {
				stolen[ev.JobID] = true
			}
		case "CostAccrued":
			charged[ev.JobID] = true
		}
	}
	for _, ev := range evs {
		switch ev.Type.String() {
		case "RentalStarted":
			l.started++
			if ev.T > 0 {
				l.booted++
			}
			l.rates[ev.Cluster] = ev.Rate
		case "RentalEnded":
			if ev.T == end {
				l.closed++
			} else if lv, ok := leaves[machine{ev.Cluster, ev.Machine}]; ok && lv.T == ev.T {
				l.early = append(l.early, lv.Type.String())
			} else {
				l.early = append(l.early, "unexplained")
			}
		}
	}
	for id := range charged {
		if shard2[id] {
			l.chargedByShard2++
		}
		if stolen[id] {
			l.chargedStolenBack++
		}
	}
	return l
}

package trace

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"cloudburst/internal/cost"
)

// The auditor folds an event stream, live or recorded, and recomputes the
// paper's SLA metrics from scratch — makespan (eq. 7), speedup (eq. 10),
// burst ratio (eq. 12), utilization (eq. 9), and the OO series (eq. 3–6) —
// without consulting the engine's accounting. It also verifies, per bursted
// job, the slack condition the job was admitted under: the estimated round
// trip had to fit inside the admission threshold, and the realized round
// trip is compared against both to flag mispredictions of the QRSM /
// bandwidth models. Any structural inconsistency in the stream (duplicate
// deliveries, time travel, bursts with missing transfer legs, deliveries
// that no placement explains) is reported as an Issue.

// AuditOptions tunes the audit.
type AuditOptions struct {
	// OOSampleInterval is the OO sampling grid in seconds (default 120,
	// matching the report default).
	OOSampleInterval float64
	// OOTolerance is t_l in jobs (default 0).
	OOTolerance int
	// Epsilon absorbs float round-off in admission checks (default 1e-9).
	Epsilon float64
}

func (o AuditOptions) withDefaults() AuditOptions {
	if o.OOSampleInterval == 0 {
		o.OOSampleInterval = 120
	}
	if o.Epsilon == 0 {
		o.Epsilon = 1e-9
	}
	return o
}

// SlackCheck is the audit of one bursted job's admission.
type SlackCheck struct {
	JobID int
	Seq   int
	// EstEC is the estimated round trip the scheduler admitted the burst
	// with; Threshold is what it was compared against (the slack).
	EstEC     float64
	Threshold float64
	// Realized is the measured round trip: delivery time minus admission
	// time.
	Realized float64
	// Violated means the realized round trip exceeded the admission
	// threshold — the burst landed on the critical path despite the slack
	// rule, i.e. the models mispredicted.
	Violated bool
}

// EstimateError returns realized minus estimated round trip (positive:
// the models were optimistic).
func (c SlackCheck) EstimateError() float64 { return c.Realized - c.EstEC }

// AuditPoint is one sample of the recomputed OO series.
type AuditPoint struct {
	T float64
	V float64
}

// Audit is the auditor's independent view of a run.
type Audit struct {
	// Recomputed SLA metrics.
	Jobs       int
	Makespan   float64
	Speedup    float64
	BurstRatio float64
	ICUtil     float64
	ECUtil     float64
	OOSeries   []AuditPoint

	// Slack verification over every delivered burst. Checked counts the
	// gated admissions verified; Mispredictions lists those whose realized
	// round trip overran the admission threshold; AdmissionViolations lists
	// bursts whose *estimate* already exceeded the threshold when admitted —
	// a scheduler bug, not a model error.
	Checks              []SlackCheck
	Checked             int
	Mispredictions      []SlackCheck
	AdmissionViolations []SlackCheck

	// Cost replay, populated when the stream carries rental/accrual events.
	// CostRental is the total rental spend re-derived from the paired
	// RentalStarted/RentalEnded events through the shared billing formula
	// (cost.BillSpan) — every carried bill and running total is compared to
	// the recomputation within Epsilon. CostCommitted is the independently
	// summed CostAccrued spend, and CostBudget the budget RunConfigured
	// announced (0 = unlimited). RentalsOpen counts rentals never ended —
	// zero for finite runs, which close out their fleets; a suspended or
	// streaming prefix legitimately leaves rentals open.
	CostAudited   bool
	CostRental    float64
	CostCommitted float64
	CostBudget    float64
	CostChecked   int
	RentalsOpen   int

	// Issues are structural inconsistencies in the stream itself. A healthy
	// engine run always audits clean.
	Issues []string

	// Stream accounting.
	Events     int
	Arrivals   int
	Chunks     int
	Deliveries int
	Bursted    int

	// Sharded-run replay: commit losers (PlacementConflict) and the
	// re-placement rounds they forced (PlacementRetried), recounted
	// independently so engine Result counters can be cross-checked against
	// the stream. Every conflicted job must re-resolve to a committed
	// placement (or be re-chunked); a leftover is an Issue.
	Conflicts    int
	Replacements int
}

// OK reports whether the stream had no structural issues.
func (a *Audit) OK() bool { return len(a.Issues) == 0 }

// Summary renders a one-screen audit result.
func (a *Audit) Summary() string {
	s := fmt.Sprintf(
		"audit over %d events: %d jobs (%d arrivals, %d chunks)\n"+
			"  recomputed  makespan %.0fs  speedup %.2f  burst %.2f  IC util %.1f%%  EC util %.1f%%\n"+
			"  slack       %d/%d bursts verified, %d mispredicted, %d admission violations\n",
		a.Events, a.Deliveries, a.Arrivals, a.Chunks,
		a.Makespan, a.Speedup, a.BurstRatio, 100*a.ICUtil, 100*a.ECUtil,
		a.Checked, a.Bursted, len(a.Mispredictions), len(a.AdmissionViolations))
	if a.CostAudited {
		budget := "unlimited"
		if a.CostBudget > 0 {
			budget = fmt.Sprintf("%.4f", a.CostBudget)
		}
		s += fmt.Sprintf("  cost        rental %.4f over %d bills  committed %.4f  budget %s  open rentals %d\n",
			a.CostRental, a.CostChecked, a.CostCommitted, budget, a.RentalsOpen)
	}
	if a.Conflicts > 0 || a.Replacements > 0 {
		s += fmt.Sprintf("  shards      %d placement conflicts, %d re-placements, all resolved\n",
			a.Conflicts, a.Replacements)
	}
	if len(a.Issues) == 0 {
		return s + "  integrity  clean\n"
	}
	s += fmt.Sprintf("  integrity  %d issue(s):\n", len(a.Issues))
	for _, is := range a.Issues {
		s += "    - " + is + "\n"
	}
	return s
}

func (a *Audit) issuef(format string, args ...any) {
	a.Issues = append(a.Issues, fmt.Sprintf(format, args...))
}

// errEmptyStream is returned for a stream with no events at all.
var errEmptyStream = errors.New("trace: cannot audit an empty event stream")

type machineKey struct {
	cluster string
	machine int
}

// rental is one elastic EC machine's rental span; retired < 0 while the
// machine is still active.
type rental struct{ added, retired float64 }

type claimKey struct{ epoch, machine int }

// delivery is what the audit keeps of one JobDelivered event.
type delivery struct {
	seq, job, site int
	t, arrival     float64
	output         int64
	ec             bool
}

// admission is what the slack check reads of a job's EC admission: a
// PlacementDecided, Rescheduled or JobRetried event that sent it to the EC.
type admission struct {
	t, estEC, threshold float64
	gated               bool
}

func admissionOf(ev Event) admission {
	return admission{t: ev.T, estEC: ev.EstEC, threshold: ev.Threshold, gated: ev.Gated}
}

// Auditor folds an event stream into the independent audit. It is a
// Tracer, so it can watch a run live, and AuditEvents drives one over a
// recorded stream; both therefore run the same checks. It keeps per-job
// and per-machine indexes and one record per delivery, never the stream
// itself. The stream may be in raw emission order.
type Auditor struct {
	opt AuditOptions
	// a holds the running counters; Audit finishes a copy of it.
	a Audit

	cfg         *Event
	tseq        float64
	delivered   map[int]int       // seq → job ID of its first delivery
	deliveries  []delivery        // first deliveries, in stream order
	admissions  map[int]admission // job ID → its latest EC admission
	movedToIC   map[int]bool      // job ID → stolen back after admission
	placements  int
	uploadEnd   map[int]bool // job ID → an upload completed
	downloadEnd map[int]bool // job ID → a download completed
	parents     map[int]bool // jobs split into chunks

	// Busy time per machine, summed interval by interval, and the order in
	// which machines first finished a compute interval.
	openCompute  map[machineKey]float64 // machine → start of its running task
	busy         map[machineKey]float64
	machineOrder []machineKey

	// Elastic-EC rental reconstruction. A fatal EC MachineFailed (spot
	// revocation) ends a rental the same way a drain does; once any EC
	// machine is revoked the fixed-fleet utilization denominator is wrong,
	// so the auditor switches to the rented basis (ecFatal). The initial
	// fleet, machines 0 to cfg.ECMachines-1, is rented from RunConfigured
	// on; ecRentals holds only the machines an event has touched, so a
	// decoded stream's fleet size costs nothing until its machines act.
	ecRentals map[int]*rental // machine ID → rental span
	ecFatal   bool

	// Cost replay: every RentalEnded bill is re-derived from its paired
	// RentalStarted through the same billing-interval rounding the engine's
	// meter uses, and both amount and running total must agree within
	// Epsilon. Committed spend is summed independently from CostAccrued.
	billingSec float64
	openRent   map[machineKey]Event

	// Sharded-commit replay: conflicted jobs must re-resolve, snapshot
	// epochs must be monotone in stream order, and no epoch may hand the
	// same primary-EC machine slot to two committed placements.
	unresolved map[int]bool
	lastEpoch  int
	claims     map[claimKey]int
}

// NewAuditor returns an auditor that has seen no events.
func NewAuditor(opt AuditOptions) *Auditor {
	return &Auditor{
		opt:         opt.withDefaults(),
		delivered:   make(map[int]int),
		admissions:  make(map[int]admission),
		movedToIC:   make(map[int]bool),
		uploadEnd:   make(map[int]bool),
		downloadEnd: make(map[int]bool),
		parents:     make(map[int]bool),
		openCompute: make(map[machineKey]float64),
		busy:        make(map[machineKey]float64),
		ecRentals:   make(map[int]*rental),
		openRent:    make(map[machineKey]Event),
		unresolved:  make(map[int]bool),
		claims:      make(map[claimKey]int),
	}
}

// AuditEvents replays a recorded stream through a fresh Auditor and
// returns the independent audit.
func AuditEvents(events []Event, opt AuditOptions) (*Audit, error) {
	au := NewAuditor(opt)
	for _, ev := range events {
		au.Emit(ev)
	}
	return au.Audit()
}

// Emit implements Tracer: it folds one event into the indexes.
func (au *Auditor) Emit(ev Event) {
	a, opt := &au.a, au.opt
	a.Events++
	if ev.Epoch > 0 {
		if ev.Epoch < au.lastEpoch {
			a.issuef("%s for job %d at t=%.3f carries stale epoch %d after epoch %d",
				ev.Type, ev.JobID, ev.T, ev.Epoch, au.lastEpoch)
		} else {
			au.lastEpoch = ev.Epoch
		}
	}
	switch ev.Type {
	case RunConfigured:
		if au.cfg != nil {
			a.issuef("duplicate RunConfigured at t=%.3f", ev.T)
			return
		}
		c := ev
		au.cfg = &c
		au.billingSec = ev.BillingSec
		a.CostBudget = ev.Budget
	case JobArrived:
		a.Arrivals++
		au.tseq += ev.StdSeconds
	case Chunked:
		a.Chunks++
		au.parents[ev.Parent] = true
		delete(au.unresolved, ev.Parent)
	case PlacementDecided:
		au.placements++
		delete(au.unresolved, ev.JobID)
		if ev.Epoch > 0 && ev.Where == "EC" && ev.Site == 0 && ev.Machine >= 0 {
			k := claimKey{ev.Epoch, ev.Machine}
			if other, taken := au.claims[k]; taken {
				a.issuef("epoch %d hands EC machine %d to jobs %d and %d",
					ev.Epoch, ev.Machine, other, ev.JobID)
			}
			au.claims[k] = ev.JobID
		}
		if ev.Where == "EC" {
			au.admissions[ev.JobID] = admissionOf(ev)
		}
	case PlacementConflict:
		a.Conflicts++
		au.unresolved[ev.JobID] = true
	case PlacementRetried:
		a.Replacements++
	case Rescheduled:
		switch ev.To {
		case "EC":
			au.admissions[ev.JobID] = admissionOf(ev)
			delete(au.movedToIC, ev.JobID)
		case "IC":
			au.movedToIC[ev.JobID] = true
		}
	case JobRetried:
		// A retry that re-passed the slack rule is a fresh admission the
		// auditor verifies against the retry time; an ungated retry
		// (download redo, IC resubmit) clears the stale threshold instead.
		if ev.To == "EC" {
			au.admissions[ev.JobID] = admissionOf(ev)
			delete(au.movedToIC, ev.JobID)
		}
	case JobFellBack:
		au.movedToIC[ev.JobID] = true
	case MachineFailed:
		if ev.Cluster == "ec" && ev.Fatal {
			au.ecFatal = true
			if r := au.rental(ev.Machine); r == nil {
				a.issuef("fatal MachineFailed for unknown EC machine %d at t=%.3f", ev.Machine, ev.T)
			} else if r.retired < 0 {
				r.retired = ev.T
			}
		}
	case UploadEnd:
		au.uploadEnd[ev.JobID] = true
	case DownloadEnd:
		au.downloadEnd[ev.JobID] = true
	case ComputeStart:
		k := machineKey{ev.Cluster, ev.Machine}
		if _, open := au.openCompute[k]; open {
			a.issuef("ComputeStart on busy machine %s/%d at t=%.3f", ev.Cluster, ev.Machine, ev.T)
		}
		au.openCompute[k] = ev.T
	case ComputeEnd:
		k := machineKey{ev.Cluster, ev.Machine}
		start, open := au.openCompute[k]
		if !open {
			a.issuef("ComputeEnd without start on %s/%d at t=%.3f", ev.Cluster, ev.Machine, ev.T)
			return
		}
		delete(au.openCompute, k)
		if ev.T < start {
			a.issuef("compute interval on %s/%d ends at %.3f before start %.3f", ev.Cluster, ev.Machine, ev.T, start)
			return
		}
		if _, seen := au.busy[k]; !seen {
			au.machineOrder = append(au.machineOrder, k)
		}
		au.busy[k] += ev.T - start
	case AutoscaleBoot:
		au.ecRentals[ev.Machine] = &rental{added: ev.T, retired: -1}
	case AutoscaleDrain:
		if r := au.rental(ev.Machine); r != nil {
			r.retired = ev.T
		} else {
			a.issuef("AutoscaleDrain of unknown machine %d at t=%.3f", ev.Machine, ev.T)
		}
	case RentalStarted:
		a.CostAudited = true
		k := machineKey{ev.Cluster, ev.Machine}
		if _, open := au.openRent[k]; open {
			a.issuef("machine %s/%d rented at t=%.3f while already rented", ev.Cluster, ev.Machine, ev.T)
		}
		au.openRent[k] = ev
	case RentalEnded:
		a.CostAudited = true
		k := machineKey{ev.Cluster, ev.Machine}
		st, open := au.openRent[k]
		if !open {
			a.issuef("rental on %s/%d ended at t=%.3f without a start", ev.Cluster, ev.Machine, ev.T)
			return
		}
		delete(au.openRent, k)
		want := cost.BillSpan(st.T, ev.T, au.billingSec, st.Rate)
		if d := ev.Amount - want; d > opt.Epsilon || d < -opt.Epsilon {
			a.issuef("rental bill on %s/%d carries %.9f, replay computes %.9f",
				ev.Cluster, ev.Machine, ev.Amount, want)
		}
		a.CostRental += want
		a.CostChecked++
		if d := ev.Total - a.CostRental; d > opt.Epsilon || d < -opt.Epsilon {
			a.issuef("rental running total %.9f at t=%.3f, replay sums %.9f", ev.Total, ev.T, a.CostRental)
		}
	case CostAccrued:
		a.CostAudited = true
		if ev.Amount < -opt.Epsilon {
			a.issuef("negative cost accrual %.9f at t=%.3f", ev.Amount, ev.T)
		}
		a.CostCommitted += ev.Amount
		if d := ev.Total - a.CostCommitted; d > opt.Epsilon || d < -opt.Epsilon {
			a.issuef("committed running total %.9f at t=%.3f, replay sums %.9f", ev.Total, ev.T, a.CostCommitted)
		}
		if a.CostBudget > 0 && ev.Total > a.CostBudget+opt.Epsilon {
			a.issuef("committed spend %.9f at t=%.3f exceeds budget %.9f", ev.Total, ev.T, a.CostBudget)
		}
	case JobDelivered:
		if prev, dup := au.delivered[ev.Seq]; dup {
			a.issuef("duplicate delivery for seq %d (jobs %d and %d)", ev.Seq, prev, ev.JobID)
			return
		}
		if ev.T < ev.Arrival {
			a.issuef("seq %d (job %d) delivered at %.3f before arrival %.3f", ev.Seq, ev.JobID, ev.T, ev.Arrival)
		}
		au.delivered[ev.Seq] = ev.JobID
		au.deliveries = append(au.deliveries, delivery{
			seq: ev.Seq, job: ev.JobID, site: ev.Site,
			t: ev.T, arrival: ev.Arrival, output: ev.OutputBytes, ec: ev.Where == "EC",
		})
	}
}

// rental returns EC machine m's rental span, opening an initial-fleet
// machine's span on first touch, or nil for a machine never rented.
func (au *Auditor) rental(m int) *rental {
	r, ok := au.ecRentals[m]
	if !ok && au.cfg != nil && m >= 0 && m < au.cfg.ECMachines {
		r = &rental{added: au.cfg.T, retired: -1}
		au.ecRentals[m] = r
	}
	return r
}

// Audit finishes the audit of the events folded so far. Each call builds a
// fresh result and leaves the fold unchanged, so an auditor can be read
// mid-stream and keep folding.
func (au *Auditor) Audit() (*Audit, error) {
	if au.a.Events == 0 {
		return nil, errEmptyStream
	}
	opt := au.opt
	a := au.a
	a.Issues = slices.Clip(a.Issues) // appends below must not write into the fold
	for k := range au.openCompute {
		a.issuef("compute interval on %s/%d never ended", k.cluster, k.machine)
	}
	for id := range au.unresolved {
		a.issuef("job %d lost a placement conflict and was never re-placed", id)
	}
	a.RentalsOpen = len(au.openRent)

	deliveredOrder := au.deliveries
	a.Deliveries = len(deliveredOrder)
	if a.Deliveries == 0 {
		a.issuef("stream contains no deliveries")
		return &a, nil
	}
	cfg := au.cfg
	if cfg == nil {
		a.issuef("stream has no RunConfigured event; utilization not audited")
	}
	if au.placements > 0 && au.placements != a.Deliveries {
		a.issuef("%d placements but %d deliveries", au.placements, a.Deliveries)
	}
	if a.Arrivals > 0 {
		// Each chunked parent is replaced by its chunks, so deliveries must
		// equal arrivals plus chunks minus the distinct parents split.
		if want := a.Arrivals + a.Chunks - len(au.parents); want != a.Deliveries {
			a.issuef("job accounting: %d arrivals + %d chunks - %d split parents = %d, but %d delivered",
				a.Arrivals, a.Chunks, len(au.parents), want, a.Deliveries)
		}
	}

	// --- Makespan, speedup, burst ratio (eq. 7, 10, 12). ----------------
	minArr := deliveredOrder[0].arrival
	end := deliveredOrder[0].t
	for _, d := range deliveredOrder[1:] {
		if d.arrival < minArr {
			minArr = d.arrival
		}
		if d.t > end {
			end = d.t
		}
	}
	a.Makespan = end - minArr
	a.Jobs = a.Deliveries
	for _, d := range deliveredOrder {
		if d.ec {
			a.Bursted++
		}
	}
	a.BurstRatio = float64(a.Bursted) / float64(a.Deliveries)
	if au.tseq > 0 && a.Makespan > 0 {
		a.Speedup = au.tseq / a.Makespan
	}

	// --- Utilization (eq. 9). -------------------------------------------
	// Busy time is recomputed from the compute intervals alone; denominators
	// come from RunConfigured (fixed fleets) or the reconstructed rental
	// spans (elastic EC).
	if cfg != nil {
		busy := func(cluster string) float64 {
			var total float64
			for _, k := range au.machineOrder {
				if k.cluster == cluster {
					total += au.busy[k]
				}
			}
			return total
		}
		if cfg.ICMachines > 0 && end > 0 {
			a.ICUtil = busy("ic") / (end * float64(cfg.ICMachines))
		}
		ecBusy := busy("ec")
		if cfg.Autoscale || au.ecFatal {
			// An initial-fleet machine no event touched is rented to the
			// end; the touched ones sum in machine order, so the result
			// does not depend on map order.
			untouched := cfg.ECMachines
			ids := make([]int, 0, len(au.ecRentals))
			for m := range au.ecRentals {
				ids = append(ids, m)
				if m >= 0 && m < cfg.ECMachines {
					untouched--
				}
			}
			sort.Ints(ids)
			var rented float64
			if end > cfg.T {
				rented = float64(untouched) * (end - cfg.T)
			}
			for _, m := range ids {
				r := au.ecRentals[m]
				stop := r.retired
				if stop < 0 || stop > end {
					stop = end
				}
				if stop > r.added {
					rented += stop - r.added
				}
			}
			if rented > 0 {
				a.ECUtil = ecBusy / rented
			}
		} else if cfg.ECMachines > 0 && end > 0 {
			a.ECUtil = ecBusy / (end * float64(cfg.ECMachines))
		}
	}

	// --- OO series (eq. 3–6), independently recomputed. -----------------
	if oo, ok := ooSeries(deliveredOrder, minArr, end, opt.OOSampleInterval, opt.OOTolerance); ok {
		a.OOSeries = oo
	} else {
		a.issuef("OO grid from t=%.3f to t=%.3f every %gs exceeds %d samples; OO series not audited",
			minArr, end, opt.OOSampleInterval, maxOOPoints)
	}

	// --- Slack verification per delivered burst. -------------------------
	for _, d := range deliveredOrder {
		if !d.ec {
			continue
		}
		adm, ok := au.admissions[d.job]
		if !ok {
			a.issuef("seq %d (job %d) delivered from EC but no placement admitted it", d.seq, d.job)
			continue
		}
		if au.movedToIC[d.job] {
			a.issuef("job %d was stolen back to the IC but still delivered from EC", d.job)
			continue
		}
		if d.site == 0 {
			// Primary-EC bursts must show complete transfer legs.
			if !au.uploadEnd[d.job] {
				a.issuef("bursted job %d has no completed upload", d.job)
			}
			if !au.downloadEnd[d.job] {
				a.issuef("bursted job %d has no completed download", d.job)
			}
		}
		if !adm.gated {
			continue // no verifiable threshold (e.g. forced placements)
		}
		c := SlackCheck{
			JobID:     d.job,
			Seq:       d.seq,
			EstEC:     adm.estEC,
			Threshold: adm.threshold,
			Realized:  d.t - adm.t,
		}
		a.Checked++
		if c.EstEC > c.Threshold+opt.Epsilon {
			a.AdmissionViolations = append(a.AdmissionViolations, c)
		}
		if c.Realized > c.Threshold+opt.Epsilon {
			c.Violated = true
			a.Mispredictions = append(a.Mispredictions, c)
		}
		a.Checks = append(a.Checks, c)
	}

	return &a, nil
}

// maxOOPoints caps the OO sampling grid: 30 days sampled every 5 s, the
// finest interval any test uses, is 518,402 points, and two years fit at
// the default 120 s. The engine does not bound a run's span (a serve runs
// as long as it keeps feeding), so a longer grid records an audit issue
// instead; a decoded stream whose deliveries span far more would otherwise
// allocate without bound, or never finish once the step falls below the
// float spacing of its timestamps.
const maxOOPoints = 1 << 19

// ooSeries recomputes the OO metric o_t (ordered output bytes, eq. 6) on
// the same sampling grid the report uses, from the deliveries alone. It
// reports false, with no series, when the grid would exceed maxOOPoints.
func ooSeries(deliveries []delivery, start, end, interval float64, tol int) ([]AuditPoint, bool) {
	if interval <= 0 || len(deliveries) == 0 {
		return nil, true
	}
	// Count the grid with an integer index first: t += interval stops
	// advancing once interval is below the spacing of t.
	n := 0
	for t := start; t <= end+interval; t += interval {
		if n++; n > maxOOPoints {
			return nil, false
		}
	}
	recs := append([]delivery(nil), deliveries...)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]AuditPoint, 0, n)
	for t := start; t <= end+interval; t += interval {
		out = append(out, AuditPoint{T: t, V: float64(ooAt(recs, t, tol))})
	}
	return out, true
}

// ooAt evaluates eq. (3)–(6) at time t over seq-sorted deliveries: the
// cumulative output bytes of completed jobs at or below the largest
// position m_t consumable in order within tolerance tol.
func ooAt(recs []delivery, t float64, tol int) int64 {
	mt := -1
	completed := 0
	for _, r := range recs {
		if r.t <= t {
			completed++
			if (r.seq+1)-tol <= completed && r.seq > mt {
				mt = r.seq
			}
		}
	}
	if mt < 0 {
		return 0
	}
	var ot int64
	for _, r := range recs {
		if r.seq <= mt && r.t <= t {
			ot += r.output
		}
	}
	return ot
}

package cloudburst

import (
	"errors"
	"fmt"
	"strings"

	"cloudburst/internal/engine"
	"cloudburst/internal/sla"
	"cloudburst/internal/stats"
)

// Point is one sample of a report series.
type Point struct {
	T float64 // virtual seconds (or sequence position for per-job series)
	V float64
}

// Report summarizes one simulated run and gives access to the SLA series
// behind the paper's figures.
type Report struct {
	Scheduler SchedulerName
	Bucket    BucketName

	// Headline SLA metrics (Sec. II-C).
	Makespan   float64 // seconds, eq. (7)
	Speedup    float64 // t_seq / makespan, eq. (10)
	BurstRatio float64 // fraction of jobs bursted, eq. (12)
	ICUtil     float64 // mean internal-cloud utilization, eq. (9)
	ECUtil     float64 // mean external-cloud utilization

	// Run shape.
	Jobs          int // post-chunking queue length
	OriginalJobs  int
	ChunksCreated int
	TSeq          float64 // sequential standard-machine seconds

	// In-order consumption summary (Figs. 7–8).
	PeakCount   int     // downstream stalls
	TotalStall  float64 // seconds the in-order consumer waited
	MaxPeak     float64 // worst single stall
	ValleyCount int     // outputs ready before needed

	// Elastic-EC accounting (rental cost basis; for a fixed fleet this is
	// simply fleet size × run window).
	ECMachineSeconds float64
	ECPeakMachines   int

	// Multi-provider diagnostics (one entry per ExtraECSites entry).
	SiteBursts []int
	SiteUtils  []float64

	// Cost accounting (all zero unless Options.Cost armed the pricing
	// model). CostRental is the billing-rounded rental bill of every
	// external machine held; CostCommitted the prepaid spend the budget
	// gate metered over admitted bursts; CostBudget echoes the configured
	// cap (0 = unlimited).
	CostRental    float64
	CostCommitted float64
	CostBudget    float64
	// BudgetDenials counts jobs the budget gate forced onto the internal
	// cloud against the scheduler's preference — nonzero only when a
	// positive budget actually bound an admission decision.
	BudgetDenials int

	// Fault-injection accounting (all zero unless Options.Faults armed a
	// fault source). Retries counts re-admissions of disturbed jobs;
	// Fallbacks counts jobs that abandoned the EC for the internal cloud.
	ECRevocations  int
	ICCrashes      int
	TransferStalls int
	TransferAborts int
	Retries        int
	Fallbacks      int

	// Sharded-scheduling accounting (all zero unless Options.Shards armed
	// Count > 1). Conflicts counts commit-phase placement collisions —
	// machine slots claimed twice or budget over-commits; Replacements
	// counts jobs sent back for another round; CommitRetries counts the
	// extra rounds themselves.
	Conflicts     int
	Replacements  int
	CommitRetries int

	opts Options
	res  *engine.Result
	rec  *TraceRecorder // non-nil when the run recorded its event stream
}

func newReport(o Options, res *engine.Result, rec *TraceRecorder) *Report {
	peaks, stall, maxPeak, valleys := res.Records.InOrderStats()
	return &Report{
		Scheduler:        o.Scheduler,
		Bucket:           o.Bucket,
		Makespan:         res.Makespan,
		Speedup:          res.Speedup,
		BurstRatio:       res.BurstRatio,
		ICUtil:           res.ICUtil,
		ECUtil:           res.ECUtil,
		Jobs:             res.Jobs,
		OriginalJobs:     res.OriginalJobs,
		ChunksCreated:    res.ChunksCreated,
		TSeq:             res.TSeq,
		PeakCount:        peaks,
		TotalStall:       stall,
		MaxPeak:          maxPeak,
		ValleyCount:      valleys,
		ECMachineSeconds: res.ECMachineSeconds,
		ECPeakMachines:   res.ECPeakMachines,
		SiteBursts:       res.SiteBursts,
		SiteUtils:        res.SiteUtils,
		ECRevocations:    res.ECRevocations,
		ICCrashes:        res.ICCrashes,
		TransferStalls:   res.TransferStalls,
		TransferAborts:   res.TransferAborts,
		Retries:          res.Retries,
		Fallbacks:        res.Fallbacks,
		CostRental:       res.CostRental,
		CostCommitted:    res.CostCommitted,
		CostBudget:       res.CostBudget,
		BudgetDenials:    res.BudgetDenials,
		Conflicts:        res.Conflicts,
		Replacements:     res.Replacements,
		CommitRetries:    res.CommitRetries,
		opts:             o,
		res:              res,
		rec:              rec,
	}
}

// TraceEvents returns the recorded event stream in emission order, or nil
// when the run was not recorded (Options.Audit unset).
func (r *Report) TraceEvents() []TraceEvent {
	if r.rec == nil {
		return nil
	}
	return r.rec.Events()
}

// Audit replays the recorded event stream and independently recomputes the
// SLA metrics — makespan, speedup, burst ratio, utilization, OO series —
// and verifies every burst's slack admission. It uses the report's OO
// sampling settings, so a clean run's audit matches the Report within float
// round-off. It errors unless the run was recorded (set Options.Audit).
func (r *Report) Audit() (*Audit, error) {
	if r.rec == nil {
		return nil, errors.New("cloudburst: run was not recorded; set Options.Audit")
	}
	return AuditTraceEvents(r.rec.Events(), AuditOptions{
		OOSampleInterval: r.opts.OOSampleInterval,
		OOTolerance:      r.opts.OOToleranceJobs,
	})
}

// String renders a one-screen summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s bucket: %d jobs (%d chunks)\n",
		r.Scheduler, r.Bucket, r.Jobs, r.ChunksCreated)
	fmt.Fprintf(&b, "  makespan   %8.0f s   speedup %5.2f\n", r.Makespan, r.Speedup)
	fmt.Fprintf(&b, "  burst      %8.2f     IC util %5.1f%%  EC util %5.1f%%\n",
		r.BurstRatio, 100*r.ICUtil, 100*r.ECUtil)
	fmt.Fprintf(&b, "  ordering   %d stalls (%.0fs total, worst %.0fs), %d valleys\n",
		r.PeakCount, r.TotalStall, r.MaxPeak, r.ValleyCount)
	if r.opts.Faults != nil {
		fmt.Fprintf(&b, "  faults     %d EC revoked, %d IC crashes, %d stalls/%d aborts → %d retries, %d fallbacks\n",
			r.ECRevocations, r.ICCrashes, r.TransferStalls, r.TransferAborts, r.Retries, r.Fallbacks)
	}
	if r.opts.Cost != nil {
		budget := "unlimited"
		if r.CostBudget > 0 {
			budget = fmt.Sprintf("$%.2f", r.CostBudget)
		}
		fmt.Fprintf(&b, "  cost       $%.4f rental, $%.4f committed of %s budget\n",
			r.CostRental, r.CostCommitted, budget)
	}
	if r.opts.Shards != nil && r.opts.Shards.Count > 1 {
		fmt.Fprintf(&b, "  shards     %d-way %s: %d conflicts, %d re-placements, %d commit retries\n",
			r.opts.Shards.Count, r.opts.Shards.Partition, r.Conflicts, r.Replacements, r.CommitRetries)
	}
	return b.String()
}

// OOSeries returns the out-of-order metric o_t (ordered output bytes
// available downstream, eq. 6) sampled on the report's interval with the
// report's tolerance.
func (r *Report) OOSeries() []Point {
	ts := r.res.Records.OOSeries(r.opts.OOSampleInterval, r.opts.OOToleranceJobs, "oo")
	return toPoints(ts)
}

// RelativeOOSeries returns this run's OO metric minus a baseline run's,
// evaluated on this run's sampling grid — the quantity plotted in the
// paper's Fig. 10.
func (r *Report) RelativeOOSeries(baseline *Report) []Point {
	a := r.res.Records.OOSeries(r.opts.OOSampleInterval, r.opts.OOToleranceJobs, "a")
	b := baseline.res.Records.OOSeries(r.opts.OOSampleInterval, r.opts.OOToleranceJobs, "b")
	return toPoints(stats.Sub(a, b))
}

// CompletionSeries returns completion time by result-queue position — the
// raw series of the paper's Figs. 7–8.
func (r *Report) CompletionSeries() []Point {
	return toPoints(r.res.Records.CompletionSeries("completion"))
}

// InOrderWaitSeries returns, per queue position, the signed wait the
// in-order consumer experiences (positive = stall peak, negative = valley).
func (r *Report) InOrderWaitSeries() []Point {
	return toPoints(r.res.Records.InOrderWaitSeries("wait"))
}

// BatchBurstRatios returns eq. (11): the burst ratio of each arrival batch.
func (r *Report) BatchBurstRatios() map[int]float64 {
	return r.res.Records.BatchBurstRatios()
}

// MeanFlowTime returns the average completion−arrival time in seconds.
func (r *Report) MeanFlowTime() float64 { return r.res.Records.MeanFlowTime() }

// Completions returns per-job completion records: sequence position, job
// ID, completion time, and whether the job was bursted.
func (r *Report) Completions() []Completion {
	recs := r.res.Records.Records()
	out := make([]Completion, len(recs))
	for i, rec := range recs {
		out[i] = Completion{
			Seq:         rec.Seq,
			JobID:       rec.JobID,
			Batch:       rec.BatchID,
			OutputBytes: rec.OutputSize,
			ArrivedAt:   rec.ArrivalTime,
			CompletedAt: rec.CompletedAt,
			Bursted:     rec.Where == sla.EC,
		}
	}
	return out
}

// Completion is one finished job in the result queue.
type Completion struct {
	Seq         int
	JobID       int
	Batch       int
	OutputBytes int64
	ArrivedAt   float64
	CompletedAt float64
	Bursted     bool
}

// TicketReport summarizes how well the run kept per-job completion
// promises ("tickets") — the paper's framing of customer expectations:
// jobs are promised completion a certain number of seconds from
// submission.
type TicketReport struct {
	Jobs          int
	Kept          int
	KeptRatio     float64
	MeanLateness  float64 // seconds, 0 for kept tickets
	P95Lateness   float64
	WorstLateness float64
}

func toTicketReport(r sla.TicketReport) TicketReport {
	return TicketReport{
		Jobs: r.Jobs, Kept: r.Kept, KeptRatio: r.KeptRatio,
		MeanLateness: r.MeanLateness, P95Lateness: r.P95Lateness,
		WorstLateness: r.WorstLateness,
	}
}

// FixedTickets evaluates a uniform promise of the given seconds-from-
// arrival against the run.
func (r *Report) FixedTickets(seconds float64) TicketReport {
	return toTicketReport(r.res.Records.TicketsKept(sla.FixedTicket(seconds)))
}

// ProportionalTickets evaluates a promise of base seconds plus
// secondsPerMB of output.
func (r *Report) ProportionalTickets(base, secondsPerMB float64) TicketReport {
	return toTicketReport(r.res.Records.TicketsKept(sla.ProportionalTicket(base, secondsPerMB)))
}

// PositionalTickets evaluates a "you are Nth in line" promise: base plus
// perSlot seconds times the queue position.
func (r *Report) PositionalTickets(base, perSlot float64) TicketReport {
	return toTicketReport(r.res.Records.TicketsKept(sla.PositionalTicket(base, perSlot)))
}

// MinimalUniformTicket returns the smallest fixed promise that this run
// would have kept for the given fraction of jobs — the tightest quote the
// operator could have given in hindsight.
func (r *Report) MinimalUniformTicket(fraction float64) float64 {
	return r.res.Records.MinimalUniformTicket(fraction)
}

// SeriesCSV renders a series as two-column CSV.
func SeriesCSV(name string, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t,%s\n", name)
	for _, p := range pts {
		fmt.Fprintf(&b, "%.3f,%.6g\n", p.T, p.V)
	}
	return b.String()
}

func toPoints(ts *stats.TimeSeries) []Point {
	out := make([]Point, ts.Len())
	for i, p := range ts.Points {
		out[i] = Point{T: p.T, V: p.V}
	}
	return out
}

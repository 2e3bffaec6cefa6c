// Package engine assembles the full cloud-bursting system of the paper's
// Fig. 5 on top of the simulation substrates: batches arrive into a job
// queue, the controller invokes a scheduler, IC jobs run on the internal
// cluster, EC jobs flow through the upload queue(s), the external cluster,
// and the download queue, and every completion lands in the result queue
// where the SLA metrics are computed.
//
// The engine owns the learned models (QRSM estimator, bandwidth predictor,
// thread tuner) and feeds them observations as the run unfolds, exactly as
// the autonomic prototype does.
package engine

import (
	"errors"
	"fmt"

	"cloudburst/internal/cluster"
	"cloudburst/internal/cost"
	"cloudburst/internal/job"
	"cloudburst/internal/netsim"
	"cloudburst/internal/qrsm"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/sim"
	"cloudburst/internal/sla"
	"cloudburst/internal/trace"
)

// The paper's test bed fixes these (Sec. V): standard-speed VMs in both
// clouds, link jitter resampled every minute, bandwidth probes every five
// minutes, time-of-day bandwidth predictors with one slot per hour and a
// 300 kB/s prior, a QRSM bootstrapped from one fixed historical set of 200
// samples, and idle rescheduling checked every 30 s. The elastic EC's
// control loop runs every minute and keeps at least one machine.
// maxVirtualTime is the safety valve: a drain still unfinished this long
// after feeding stopped has a stalled pipeline.
const (
	machineSpeed       = 1.0
	resamplePeriod     = 60
	probePeriod        = 300
	predictorSlots     = 24
	priorBW            = 300 * 1024
	bootstrapSeed      = 7
	bootstrapN         = 200
	reschedulingPeriod = 30
	autoscaleMin       = 1
	autoscalePeriod    = 60
	maxVirtualTime     = 30 * netsim.Day
)

// Config parameterizes a run. Zero values take defaults mirroring the
// paper's test bed: 8 IC VMs, 2 EC VMs and a diurnal thin pipe; the probe
// cadence, the bandwidth prior and the QRSM bootstrap are the constants
// above.
type Config struct {
	// Clusters.
	ICMachines int // default 8
	ECMachines int // default 2

	// Network.
	UploadProfile   *netsim.Profile // default diurnal 600 kB/s ±30%
	DownloadProfile *netsim.Profile // default diurnal 900 kB/s ±30%
	JitterCV        float64         // default 0.15 ("high variation" runs use ~0.5)
	ThreadModel     netsim.ThreadModel
	NetSeed         int64
	// Outages, when set, injects throttling/outage episodes on both links.
	Outages *netsim.OutageModel

	// Learned models.
	PredictorAlpha float64 // default 0.3
	NoiseCV        float64 // QRSM bootstrap noise (default 0.12)

	// Scheduler tuning.
	SchedConfig sched.Config

	// RemoteSites adds external clouds beyond the primary EC; schedulers
	// burst each job to the site with the earliest estimated completion.
	RemoteSites []RemoteSiteConfig

	// Rescheduling strategies of Sec. IV-D (idle steal-back / idle pull).
	Rescheduling bool

	// Autoscale, when set, makes the EC fleet elastic: machines boot (after
	// a delay) when the committed EC demand would queue too long and drain
	// when idle. ECMachines then only sets the initial fleet.
	Autoscale *AutoscaleConfig

	// Faults, when set, injects deterministic seeded failures — EC
	// revocations, IC crashes, transfer stalls — and drives the recovery
	// policies (bounded re-burst with backoff, IC fallback). Faults apply to
	// the primary EC and its links only; remote sites are unaffected.
	Faults *FaultConfig

	// Shards, when set with Count > 1, routes every batch through the
	// shared-state sharded placement path: Count scheduler instances place
	// speculatively against one snapshot, one after another, a
	// deterministic commit phase detects machine-claim and budget
	// collisions, and losers re-place against refreshed snapshots.
	// Requires NewScheduler.
	Shards *shard.Config
	// NewScheduler builds one scheduler instance per shard. Stateful
	// schedulers (SIBS carries its size-interval bounds across batches)
	// need a private instance per shard; the factory supplies them.
	NewScheduler func() sched.Scheduler

	// Cost, when set, prices the external cloud: machine rentals are
	// metered against the billing interval (RentalStarted/RentalEnded
	// events), every admitted burst accrues a committed charge
	// (CostAccrued), and a positive Budget arms the schedulers' admission
	// gate — over-budget work runs on the IC instead. A nil Cost keeps the
	// run bit-identical to an unpriced one.
	Cost *cost.Config

	// Tracer, when set, receives the structured event stream (package
	// trace): arrivals, decisions with rationale, transfers, compute
	// intervals, probes, outages, autoscale actions and deliveries. A nil
	// Tracer disables tracing with zero hot-path cost.
	Tracer trace.Tracer

	// Reference runs the simulation on the naive reference structures
	// (sim.NewReference event core, no QRSM estimate memoization) instead
	// of the optimized ones. Trajectories are bit-identical by
	// construction; the mode exists so internal/refsim can cross-check the
	// optimized paths. Slow — not for production runs.
	Reference bool
}

func (c Config) withDefaults() Config {
	if c.ICMachines == 0 {
		c.ICMachines = 8
	}
	if c.ECMachines == 0 {
		c.ECMachines = 2
	}
	if c.UploadProfile == nil {
		c.UploadProfile = netsim.DiurnalProfile(600*1024, 0.3)
	}
	if c.DownloadProfile == nil {
		c.DownloadProfile = netsim.DiurnalProfile(900*1024, 0.3)
	}
	if c.JitterCV == 0 {
		c.JitterCV = 0.15
	}
	if c.ThreadModel.PerThread == 0 {
		c.ThreadModel = netsim.DefaultThreadModel()
	}
	if c.PredictorAlpha == 0 {
		c.PredictorAlpha = 0.3
	}
	if c.NoiseCV == 0 {
		c.NoiseCV = 0.12
	}
	return c
}

// Result summarizes one run.
type Result struct {
	Scheduler string
	Bucket    string

	Records *sla.Set
	TSeq    float64 // sequential standard-machine time of the workload

	Makespan   float64
	Speedup    float64
	BurstRatio float64
	ICUtil     float64
	ECUtil     float64

	Jobs          int // post-chunking queue length
	OriginalJobs  int
	ChunksCreated int

	UploadedBytes   int64
	DownloadedBytes int64
	ProbeCount      int
	FinalThreads    int

	// Multi-site diagnostics: bursts routed to each remote site and its
	// utilization (primary-EC numbers are in BurstRatio/ECUtil).
	SiteBursts []int
	SiteUtils  []float64

	// Elastic-EC accounting (meaningful when autoscaling is enabled; with
	// a fixed fleet ECMachineSeconds is simply fleet × makespan-window).
	ECMachineSeconds float64
	ECPeakMachines   int
	ECBoots          int
	ECDrains         int

	// Learned-model diagnostics. QRSMR2 is the fit quality of the global
	// QRSM the run's final consultations actually used — a refit requested
	// by the cadence but never consulted by any decision is not
	// materialized just to report on it.
	QRSMR2                float64
	PredictorObservations int

	// Fault/recovery accounting (all zero without fault injection).
	ECRevocations  int // EC machines permanently revoked
	ICCrashes      int // IC machine failures injected
	TransferStalls int // transfers frozen by stall injection
	TransferAborts int // stalled transfers killed by the timeout
	Retries        int // jobs re-admitted to the EC pipeline after a fault
	Fallbacks      int // jobs that abandoned the EC for the IC

	// Cost accounting (all zero without a cost model). CostRental is the
	// billed rental total of every machine span (rounded up to billing
	// intervals); CostCommitted the monotone prepaid burst spend, which a
	// positive CostBudget bounds by gate construction.
	CostRental    float64
	CostCommitted float64
	CostBudget    float64
	// BudgetDenials counts jobs the budget gate kept on the IC against the
	// scheduler's preference — the "budget-forced fallback" signal the
	// frontier search bisects for.
	BudgetDenials int

	// Sharded-scheduling accounting (all zero on the monolithic path).
	// Conflicts counts decisions that lost a commit phase (machine-claim
	// collisions plus budget over-commits), Replacements the re-placement
	// attempts those losses forced, and CommitRetries the extra placement
	// rounds batches needed beyond their first.
	Conflicts     int
	Replacements  int
	CommitRetries int
}

// ErrTimeout is returned when the admitted jobs are still not all done 30
// virtual days after feeding stopped, indicating a stalled pipeline. The
// valve counts from that stop: a Run's last arrival, or whatever stopped a
// Serve — its duration, its job budget, source exhaustion or cancellation.
// A Serve that is still feeding never trips it.
var ErrTimeout = errors.New("engine: run exceeded the virtual time budget")

// jobState tracks one queue slot through the pipeline.
type jobState struct {
	j     *job.Job
	seq   int
	place sched.Placement

	site        int               // index into Engine.sites: 0 = primary EC
	uploadItem  *netsim.QueueItem // set while waiting/in-flight toward EC
	icTask      *cluster.Task     // set while queued/running on the IC
	downloading bool              // output handed to the download queue
	done        bool

	// attempts counts fault recoveries consumed against the retry budget.
	attempts int
}

// Engine is one run's mutable state.
type Engine struct {
	cfg    Config
	sched  sched.Scheduler
	tracer trace.Tracer // nil disables all event emission
	// want is the dispatch mask compiled from tracer once per run: emit
	// sites test it before materializing an Event, so runs where nobody
	// (or only a narrow-interest sink like the invariant checker) listens
	// pay one branch per potential event instead of struct construction
	// and a dynamic dispatch.
	want trace.Mask

	eng *sim.Engine
	// arena is the run's pooled allocation backbone (nil in Reference mode
	// and for Serve); see arena.go.
	arena *arena
	ic    *cluster.Cluster
	// sites are the external clouds, the primary EC first (see sites.go);
	// ec is sites[0].cluster, the cluster the EC fault injector, the
	// autoscaler and rescheduling act on. Fault recovery reads the job's
	// own site.
	sites     []*ecSite
	ec        *cluster.Cluster
	estimator *qrsm.Estimator

	scaler *autoscaler

	// meter accrues rental and committed-burst cost; nil when Config.Cost
	// is unset (no events, no gate, bit-identical trajectories).
	meter *cost.Meter

	// Fault injection and recovery accounting.
	icFaults *cluster.FaultInjector
	ecFaults *cluster.FaultInjector
	stalls   int
	aborts   int
	retries  int
	fallbks  int

	// budgetDenied counts jobs the cost model's admission gate forced onto
	// the IC (the scheduler wanted to burst them, but the estimated charge
	// would overrun the remaining budget).
	budgetDenied int

	// Sharded placement path (nil coord on the monolithic path).
	coord         *shard.Coordinator
	epoch         int // monotone snapshot counter across all rounds
	conflicts     int
	replacements  int
	commitRetries int
	freeECBuf     []int

	// streaming marks a Serve run, whose result reports the rental accrual
	// and leaves rentals open for a continuation; a finite run closes them.
	streaming bool

	alloc   *job.Counter
	seqNext int
	// states is dense, indexed by job ID: workload IDs are contiguous from
	// zero and chunk IDs continue past them via job.NewCounter, so a slice
	// replaces the pointer-keyed map the engine used to carry. Iteration
	// order is ascending ID — deterministic, unlike map range order.
	states []*jobState
	// estCache memoizes QRSM estimates per job ID for the current estimator
	// version, so backlog scans and scheduler consultations stop paying the
	// quadratic-model evaluation for every look at the same job.
	estCache []estEntry
	// prepArmed marks a scheduling round whose first estimate-cache miss
	// has not come yet; prepJobs are the round's jobs. That miss fits every
	// model the round will read in one concurrent pass (Estimator.Prepare)
	// and disarms. prepVer is the cache version of the last pass, prepares
	// counts the passes.
	prepArmed bool
	prepJobs  []*job.Job
	prepVer   uint64
	prepares  int
	records   *sla.Set
	completed int
	total     int
	chunks    int

	uploadedBytes   int64
	downloadedBytes int64
}

// estEntry is one memoized QRSM estimate. ver holds estimator version + 1
// at fill time so the zero value never matches a live version.
type estEntry struct {
	ver uint64
	val float64
}

// wants reports whether the compiled dispatch mask asks for event type t;
// emit sites guard on it instead of a nil check on the tracer.
func (e *Engine) wants(t trace.EventType) bool { return e.want.Has(t) }

// compileMask (re)compiles the dispatch mask from the current tracer. Run
// once per run, before any hooks that emit are installed.
func (e *Engine) compileMask() { e.want = trace.MaskFor(e.tracer) }

// estimateJob returns the QRSM estimate for j, memoized per (job, estimator
// version). Estimates depend only on the job's features and the fitted
// model state, so the cache is exact: it returns bit-identical values to
// calling the estimator directly.
func (e *Engine) estimateJob(j *job.Job) float64 {
	if e.cfg.Reference {
		// Reference mode bypasses the cache so the differential harness
		// exercises the estimator directly on every call.
		return e.estimator.Estimate(j.Features)
	}
	id := j.ID
	ver := e.estimator.Version() + 1
	if id >= 0 && id < len(e.estCache) {
		if ent := &e.estCache[id]; ent.ver == ver {
			return ent.val
		}
	}
	if e.prepArmed {
		e.prepArmed = false
		e.prepares++
		e.estimator.Prepare(e.roundClasses(ver))
	}
	v := e.estimator.Estimate(j.Features)
	if id >= 0 {
		e.estCache = cover(e.estCache, id)
		e.estCache[id] = estEntry{ver: ver, val: v}
	}
	return v
}

// roundClasses is the class mask of every job the armed round estimates
// with no estimate cached at ver: the round's jobs, whose chunks inherit
// their features, and the EC jobs still uploading to any site, which
// tallyPending sums. Every job that reaches the upload phase was
// estimated on its way there, so uploads miss only after the version
// moved: at an unchanged version the table walk is skipped. A class left
// out only loses its place in the concurrent pass; its fit stays lazy.
func (e *Engine) roundClasses(ver uint64) uint64 {
	var mask uint64
	for _, j := range e.prepJobs {
		mask |= qrsm.ClassBit(j.Features.Class)
	}
	if ver == e.prepVer {
		return mask
	}
	e.prepVer = ver
	for _, js := range e.states {
		if js == nil || js.place != sched.PlaceEC || js.done || js.uploadItem == nil {
			continue
		}
		if id := js.j.ID; id < len(e.estCache) && e.estCache[id].ver == ver {
			continue
		}
		mask |= qrsm.ClassBit(js.j.Features.Class)
	}
	return mask
}

// cover returns table resliced or grown so that id indexes it. Tables grow
// into their retained capacity first — beyond len the backing array is
// zero (fresh allocations are zero, and arena release scrubs [0:len)) — so
// a pooled run's tables reach the previous run's size without reallocating.
func cover[T any](table []T, id int) []T {
	switch {
	case id < len(table):
		return table
	case id < cap(table):
		return table[:id+1]
	}
	grown := make([]T, id+1, max(2*cap(table), id+1+64))
	copy(grown, table)
	return grown
}

// stateFor returns the pipeline slot for job ID, or nil when the engine is
// not tracking it.
func (e *Engine) stateFor(id int) *jobState {
	if id < 0 || id >= len(e.states) {
		return nil
	}
	return e.states[id]
}

// setState registers a queue slot under its job ID, growing the dense table
// as arrivals and chunking allocate IDs.
func (e *Engine) setState(id int, js *jobState) {
	if id < 0 {
		panic(fmt.Sprintf("engine: job ID %d negative", id))
	}
	e.states = cover(e.states, id)
	e.states[id] = js
}

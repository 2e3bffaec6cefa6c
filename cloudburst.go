// Package cloudburst is an autonomic cloud-bursting scheduler library and
// simulator, reproducing "Optimizing Service Level Agreements for Autonomic
// Cloud Bursting Schedulers" (Kailasam, Gnanasambandam, Dharanipragada,
// Sharma — ICPP 2010).
//
// The library simulates a production document-processing facility whose
// internal cloud (IC) bursts overflow work to a small external cloud (EC)
// over a thin, time-varying Internet pipe, using learned models — a
// quadratic response surface for processing time and a time-of-day
// bandwidth predictor — to honor queue-level service agreements: slackness
// constraints, out-of-order tolerances, makespan, utilization, speedup and
// burst ratio.
//
// Quick start:
//
//	report, err := cloudburst.Run(cloudburst.Options{
//		Scheduler: cloudburst.OrderPreserving,
//		Bucket:    cloudburst.Uniform,
//	})
//	fmt.Println(report)
//
// The full experiment harness behind the paper's figures and tables lives
// in internal/experiments and is exposed through cmd/experiments; the
// benchmarks in bench_test.go regenerate every figure and table.
//
// # Errors
//
// Every failure the package returns is one of five typed errors, so
// callers branch with errors.As instead of parsing messages:
//
//	var oe *cloudburst.OptionError     // an Options field outside its domain
//	var se *cloudburst.SweepSpecError  // a structurally invalid sweep grid
//	var ve *cloudburst.VerifyError     // invariant violations in a verified run
//	var ke *cloudburst.CheckpointError // an unusable streaming checkpoint blob
//	var ce *cloudburst.CostError       // a cost-analysis failure (advisor, Pareto)
//
//	switch _, err := cloudburst.Run(o); {
//	case err == nil:
//	case errors.As(err, &oe):
//		log.Printf("fix option %s (got %v): %s", oe.Field, oe.Value, oe.Reason)
//	case errors.As(err, &ve):
//		log.Printf("simulation broke %d invariant(s): %s", ve.Total, ve.Violations[0])
//	}
//
//	if _, err := cloudburst.Advise(manifest); err != nil {
//		var ce *cloudburst.CostError
//		if errors.As(err, &ce) {
//			log.Printf("advisor cannot use %s: %s", ce.Path, ce.Reason)
//		}
//	}
//
// All message strings carry the "cloudburst:" prefix; the types, not the
// strings, are the stable API.
package cloudburst

import (
	"context"
	"errors"
	"fmt"

	"cloudburst/internal/engine"
	"cloudburst/internal/invariant"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/sweep"
	"cloudburst/internal/workload"
)

// SchedulerName selects one of the paper's schedulers.
type SchedulerName string

// The available schedulers.
const (
	// ICOnly runs everything on the internal cloud (baseline).
	ICOnly SchedulerName = "ICOnly"
	// Greedy is Algorithm 1: earliest-estimated-finish placement.
	Greedy SchedulerName = "Greedy"
	// GreedyTracking is Greedy with within-batch load bookkeeping (an
	// ablation variant, not in the paper).
	GreedyTracking SchedulerName = "GreedyTracking"
	// OrderPreserving is Algorithm 2: slack-gated bursting with chunking.
	OrderPreserving SchedulerName = "Op"
	// SIBS is Algorithm 3: OrderPreserving plus size-interval bandwidth
	// splitting across small/medium/large upload queues.
	SIBS SchedulerName = "SIBS"
)

// Schedulers lists every selectable scheduler name.
func Schedulers() []SchedulerName {
	return []SchedulerName{ICOnly, Greedy, GreedyTracking, OrderPreserving, SIBS}
}

// BucketName selects the job-size distribution of the synthetic production
// workload.
type BucketName string

// The paper's three workload buckets.
const (
	// Small biases job sizes toward the bottom of the 1–300 MB range.
	Small BucketName = "small"
	// Uniform draws sizes uniformly over the range.
	Uniform BucketName = "uniform"
	// Large biases sizes toward the top of the range.
	Large BucketName = "large"
)

// Buckets lists the bucket names in paper order.
func Buckets() []BucketName { return []BucketName{Small, Uniform, Large} }

// Options configures a simulated run. The zero value (plus a scheduler)
// reproduces the paper's test bed: 8 IC VMs, 2 EC VMs, batches of ~15 jobs
// every 3 minutes, a diurnal ~600 kB/s upload pipe with jitter, periodic
// 1 MB bandwidth probes, and a bootstrapped QRSM processing-time model.
type Options struct {
	Scheduler SchedulerName // default OrderPreserving
	Bucket    BucketName    // default Uniform

	// Workload shape.
	Batches          int     // default 6
	MeanJobsPerBatch float64 // default 15 (Poisson λ)
	BatchIntervalSec float64 // default 180
	WorkloadSeed     int64

	// Cluster sizes.
	ICMachines int // default 8
	ECMachines int // default 2

	// Network.
	UploadMeanBW     float64 // bytes/sec, default 600 kB/s
	DownloadMeanBW   float64 // bytes/sec, default 900 kB/s
	DiurnalAmplitude float64 // default 0.3
	JitterCV         float64 // default 0.15; ~0.5 models high variation
	NetSeed          int64
	// Outage injection: when OutageMTBF > 0, both links suffer episodes
	// that multiply capacity by OutageThrottle (0 = hard outage) for
	// OutageMeanDuration seconds on average, starting at exponential
	// intervals with the given mean.
	OutageMTBF         float64
	OutageMeanDuration float64 // default 60 when MTBF is set
	OutageThrottle     float64 // default 0 (hard outage)

	// Scheduler behaviour.
	SlackMarginSec float64 // τ safety margin for the slack rule
	Rescheduling   bool    // enable the Sec. IV-D strategies

	// Elastic external cloud (the paper's future-work scaling policy):
	// when AutoscaleECMax > 0, the EC fleet starts at ECMachines (or 1)
	// and boots/drains machines between 1 and AutoscaleECMax based on
	// committed demand. Two exceptions can leave it empty: EC revocation
	// (Faults.ECRevocationMTBF) can take its last machine, and the
	// replacement, booted after AutoscaleBootDelay, is rented only while
	// the budget (Cost.Budget) still pays one burst charge, so a fleet
	// emptied after the budget is spent stays empty to the end of the run.
	// Rental time is reported on the Report.
	AutoscaleECMax      int
	AutoscaleBootDelay  float64 // default 120 s
	AutoscaleTargetWait float64 // default 300 s

	// ExtraECSites adds external-cloud providers beyond the primary EC
	// (the multi-provider "where" dimension from the paper's introduction).
	// Schedulers burst each job to the provider with the earliest
	// estimated completion.
	ExtraECSites []ECSiteSpec

	// Faults, when non-nil, arms deterministic fault injection: spot-style
	// EC revocations, repairable IC crashes and transfer stalls, recovered
	// via bounded retries with exponential backoff and a graceful fallback
	// to the internal cloud. Nil keeps all fault sources off.
	Faults *FaultOptions

	// Cost, when non-nil, arms the deterministic pricing model: rental
	// billing on every external-cloud machine, prepaid per-burst
	// commitments, and — when Cost.Budget is set — budget-gated admission
	// in the bursting schedulers. Nil keeps cost accounting off and the
	// run's trace bit-identical to earlier releases.
	Cost *CostOptions

	// Shards, when non-nil with Count > 1, arms shared-state sharded
	// scheduling: scheduler instances place disjoint partitions of each
	// batch against one cluster snapshot without seeing each other's
	// decisions, with optimistic conflict detection and bounded
	// re-placement at commit time (see ShardOptions). It models
	// speculative placement; the shards run one after another, so it does
	// not schedule faster. Nil or Count <= 1 keeps the monolithic path and
	// its bit-identical traces.
	Shards *ShardOptions

	// Reporting.
	OOToleranceJobs  int     // tolerance t_l for the OO metric (default 0)
	OOSampleInterval float64 // seconds between OO samples (default 120)

	// Trace, when set, receives the run's structured event stream (see
	// trace.go: NewTraceRecorder, NewJSONLTracer, MultiTracer). Nil keeps
	// tracing off with zero simulation-path cost.
	Trace Tracer
	// Audit attaches the independent SLA auditor, which folds the stream
	// as the run emits it so Report.Audit can recompute the SLA metrics
	// afterwards. It keeps per-job indexes, not the events; to keep those,
	// set Trace to a NewTraceRecorder.
	Audit bool
	// Verify attaches the runtime invariant checker to the run: every
	// emitted event is audited against the simulation's structural
	// invariants (clock monotonicity, byte conservation, bandwidth
	// ceilings, slack admissions, OO monotonicity, single delivery), and
	// the run fails with a *VerifyError if any is violated. It costs about
	// 1.7x the wall-clock of an untraced run (1.4x-2.1x in
	// BenchmarkRunVerify); intended for CI and debugging, not production
	// sweeps.
	Verify bool
}

// ECSiteSpec describes one additional external-cloud provider.
type ECSiteSpec struct {
	Machines       int     // default 2
	UploadMeanBW   float64 // bytes/sec, default 600 kB/s
	DownloadMeanBW float64 // bytes/sec, default 900 kB/s
	JitterCV       float64 // default: the run's JitterCV
	// OnDemandRate overrides Cost.OnDemandRate for this site's machines
	// ($/machine-hour); 0 inherits it. Ignored while Cost is nil. Extra
	// sites are never spot-priced — the revocation model is primary-only.
	OnDemandRate float64
}

// Normalize returns a copy of the options with every default made explicit:
// the returned value runs identically to the receiver, but each zero field
// that has a documented default now carries that default. It is idempotent,
// and Run applies it automatically — call it directly to inspect or tweak
// the effective configuration (see Preset).
//
// One intentional gap: ExtraECSites bandwidths stay zero, because the
// engine's per-site default profiles use a fixed 0.3 diurnal amplitude
// rather than the run's DiurnalAmplitude — filling in the mean bandwidth
// here would silently change the site's profile shape.
func (o Options) Normalize() Options {
	if o.Scheduler == "" {
		o.Scheduler = OrderPreserving
	}
	if o.Bucket == "" {
		o.Bucket = Uniform
	}
	if o.Batches == 0 {
		o.Batches = 6
	}
	if o.MeanJobsPerBatch == 0 {
		o.MeanJobsPerBatch = 15
	}
	if o.BatchIntervalSec == 0 {
		o.BatchIntervalSec = 180
	}
	if o.ICMachines == 0 {
		o.ICMachines = 8
	}
	if o.ECMachines == 0 {
		if o.AutoscaleECMax > 0 {
			o.ECMachines = 1
		} else {
			o.ECMachines = 2
		}
	}
	if o.UploadMeanBW == 0 {
		o.UploadMeanBW = 600 * 1024
	}
	if o.DownloadMeanBW == 0 {
		o.DownloadMeanBW = 900 * 1024
	}
	if o.DiurnalAmplitude == 0 {
		o.DiurnalAmplitude = 0.3
	}
	if o.JitterCV == 0 {
		o.JitterCV = 0.15
	}
	if o.OutageMTBF > 0 && o.OutageMeanDuration == 0 {
		o.OutageMeanDuration = 60
	}
	if o.AutoscaleECMax > 0 {
		if o.AutoscaleBootDelay == 0 {
			o.AutoscaleBootDelay = 120
		}
		if o.AutoscaleTargetWait == 0 {
			o.AutoscaleTargetWait = 300
		}
	}
	if o.OOSampleInterval == 0 {
		o.OOSampleInterval = 120
	}
	if len(o.ExtraECSites) > 0 {
		sites := make([]ECSiteSpec, len(o.ExtraECSites))
		copy(sites, o.ExtraECSites)
		for i := range sites {
			if sites[i].Machines == 0 {
				sites[i].Machines = 2
			}
			if sites[i].JitterCV == 0 {
				sites[i].JitterCV = o.JitterCV
			}
		}
		o.ExtraECSites = sites
	}
	if o.Faults != nil {
		f := o.Faults.normalize()
		o.Faults = &f
	}
	if o.Cost != nil {
		c := o.Cost.normalize()
		o.Cost = &c
	}
	if o.Shards != nil {
		s := o.Shards.normalize()
		o.Shards = &s
	}
	return o
}

// validate rejects option values outside their meaningful domain with a
// typed *OptionError, so misconfigurations fail fast at the API boundary —
// with the offending field identified programmatically — instead of
// panicking deep inside the simulation substrates.
func (o Options) validate() error {
	if err := checkFinite("", []floatField{
		{"MeanJobsPerBatch", o.MeanJobsPerBatch},
		{"BatchIntervalSec", o.BatchIntervalSec},
		{"UploadMeanBW", o.UploadMeanBW},
		{"DownloadMeanBW", o.DownloadMeanBW},
		{"DiurnalAmplitude", o.DiurnalAmplitude},
		{"JitterCV", o.JitterCV},
		{"OutageMTBF", o.OutageMTBF},
		{"OutageMeanDuration", o.OutageMeanDuration},
		{"OutageThrottle", o.OutageThrottle},
		{"SlackMarginSec", o.SlackMarginSec},
		{"AutoscaleBootDelay", o.AutoscaleBootDelay},
		{"AutoscaleTargetWait", o.AutoscaleTargetWait},
		{"OOSampleInterval", o.OOSampleInterval},
	}); err != nil {
		return err
	}
	switch {
	case o.Batches < 0:
		return optErr("Batches", o.Batches, "must not be negative")
	case o.MeanJobsPerBatch < 0:
		return optErr("MeanJobsPerBatch", o.MeanJobsPerBatch, "must not be negative")
	case o.BatchIntervalSec < 0:
		return optErr("BatchIntervalSec", o.BatchIntervalSec, "must not be negative")
	case o.ICMachines < 0:
		return optErr("ICMachines", o.ICMachines, "must not be negative")
	case o.ECMachines < 0:
		return optErr("ECMachines", o.ECMachines, "must not be negative")
	case o.UploadMeanBW < 0:
		return optErr("UploadMeanBW", o.UploadMeanBW, "must not be negative")
	case o.DownloadMeanBW < 0:
		return optErr("DownloadMeanBW", o.DownloadMeanBW, "must not be negative")
	case o.DiurnalAmplitude < 0 || o.DiurnalAmplitude > 1:
		return optErr("DiurnalAmplitude", o.DiurnalAmplitude, "out of [0,1]")
	case o.JitterCV < 0:
		return optErr("JitterCV", o.JitterCV, "must not be negative")
	case o.OutageMTBF < 0:
		return optErr("OutageMTBF", o.OutageMTBF, "must not be negative")
	case o.OOToleranceJobs < 0:
		return optErr("OOToleranceJobs", o.OOToleranceJobs, "must not be negative")
	case o.OOSampleInterval < 0:
		return optErr("OOSampleInterval", o.OOSampleInterval, "must not be negative")
	}
	if o.OutageMTBF > 0 {
		if o.OutageMeanDuration < 0 {
			return optErr("OutageMeanDuration", o.OutageMeanDuration, "must not be negative")
		}
		if o.OutageThrottle < 0 || o.OutageThrottle >= 1 {
			return optErr("OutageThrottle", o.OutageThrottle, "out of [0,1)")
		}
	}
	if o.AutoscaleECMax < 0 {
		return optErr("AutoscaleECMax", o.AutoscaleECMax, "must not be negative")
	}
	if o.AutoscaleECMax > 0 {
		switch {
		case o.AutoscaleBootDelay < 0:
			return optErr("AutoscaleBootDelay", o.AutoscaleBootDelay, "must not be negative")
		case o.AutoscaleTargetWait < 0:
			return optErr("AutoscaleTargetWait", o.AutoscaleTargetWait, "must not be negative")
		case o.ECMachines > o.AutoscaleECMax:
			return optErr("ECMachines", o.ECMachines, "exceeds AutoscaleECMax %d", o.AutoscaleECMax)
		}
	}
	for i, s := range o.ExtraECSites {
		if err := checkFinite(fmt.Sprintf("ExtraECSites[%d].", i), []floatField{
			{"UploadMeanBW", s.UploadMeanBW},
			{"DownloadMeanBW", s.DownloadMeanBW},
			{"JitterCV", s.JitterCV},
			{"OnDemandRate", s.OnDemandRate},
		}); err != nil {
			return err
		}
		switch {
		case s.Machines < 0:
			return optErr(fmt.Sprintf("ExtraECSites[%d].Machines", i), s.Machines, "must not be negative")
		case s.UploadMeanBW < 0:
			return optErr(fmt.Sprintf("ExtraECSites[%d].UploadMeanBW", i), s.UploadMeanBW, "must not be negative")
		case s.DownloadMeanBW < 0:
			return optErr(fmt.Sprintf("ExtraECSites[%d].DownloadMeanBW", i), s.DownloadMeanBW, "must not be negative")
		case s.JitterCV < 0:
			return optErr(fmt.Sprintf("ExtraECSites[%d].JitterCV", i), s.JitterCV, "must not be negative")
		case s.OnDemandRate < 0:
			return optErr(fmt.Sprintf("ExtraECSites[%d].OnDemandRate", i), s.OnDemandRate, "must not be negative")
		}
	}
	if o.Faults != nil {
		if err := o.Faults.validate(); err != nil {
			return err
		}
	}
	if o.Cost != nil {
		if err := o.Cost.validate(); err != nil {
			return err
		}
	}
	if o.Shards != nil {
		if err := o.Shards.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (o Options) bucket() (workload.Bucket, error) {
	switch o.Bucket {
	case Small:
		return workload.SmallBias, nil
	case Uniform:
		return workload.UniformMix, nil
	case Large:
		return workload.LargeBias, nil
	default:
		return 0, optErr("Bucket", o.Bucket, "is not a known bucket name")
	}
}

func (o Options) scheduler() (sched.Scheduler, error) {
	cfg := sched.Config{SlackMargin: o.SlackMarginSec}
	switch o.Scheduler {
	case ICOnly:
		return sched.ICOnly{}, nil
	case Greedy:
		return sched.Greedy{}, nil
	case GreedyTracking:
		return sched.GreedyTracking{}, nil
	case OrderPreserving:
		return sched.OrderPreserving{Cfg: cfg}, nil
	case SIBS:
		return &sched.SIBS{Cfg: cfg}, nil
	default:
		return nil, optErr("Scheduler", o.Scheduler, "is not a known scheduler name")
	}
}

// engineConfig translates normalized options into the engine's
// configuration.
func (o Options) engineConfig() engine.Config {
	amp := o.DiurnalAmplitude
	cfg := engine.Config{
		ICMachines:      o.ICMachines,
		ECMachines:      o.ECMachines,
		JitterCV:        o.JitterCV,
		NetSeed:         o.NetSeed,
		Rescheduling:    o.Rescheduling,
		SchedConfig:     sched.Config{SlackMargin: o.SlackMarginSec},
		UploadProfile:   netsim.DiurnalProfile(o.UploadMeanBW, amp),
		DownloadProfile: netsim.DiurnalProfile(o.DownloadMeanBW, amp),
	}
	if o.OutageMTBF > 0 {
		cfg.Outages = &netsim.OutageModel{
			MeanTimeBetween: o.OutageMTBF,
			MeanDuration:    o.OutageMeanDuration,
			ThrottleFactor:  o.OutageThrottle,
		}
	}
	for _, site := range o.ExtraECSites {
		rc := engine.RemoteSiteConfig{
			Machines:     site.Machines,
			JitterCV:     site.JitterCV,
			OnDemandRate: site.OnDemandRate,
		}
		if site.UploadMeanBW > 0 {
			rc.UploadProfile = netsim.DiurnalProfile(site.UploadMeanBW, amp)
		}
		if site.DownloadMeanBW > 0 {
			rc.DownloadProfile = netsim.DiurnalProfile(site.DownloadMeanBW, amp)
		}
		cfg.RemoteSites = append(cfg.RemoteSites, rc)
	}
	if o.AutoscaleECMax > 0 {
		cfg.Autoscale = &engine.AutoscaleConfig{
			Max:        o.AutoscaleECMax,
			BootDelay:  o.AutoscaleBootDelay,
			TargetWait: o.AutoscaleTargetWait,
		}
	}
	if o.Faults != nil {
		cfg.Faults = o.Faults.engineConfig()
	}
	if o.Cost != nil {
		cfg.Cost = o.Cost.engineConfig(o.Faults != nil && o.Faults.ECRevocationMTBF > 0)
	}
	if sc := o.shardConfig(); sc != nil {
		cfg.Shards = sc
		cfg.NewScheduler = o.schedulerFactory()
	}
	return cfg
}

// Run executes one simulated run and returns its report. Runs are
// deterministic: identical Options yield identical reports.
func Run(o Options) (*Report, error) {
	return RunContext(context.Background(), o)
}

// RunContext is Run with cooperative cancellation: the simulation polls the
// context between event batches and returns ctx.Err() once it fires. A nil
// context is treated as context.Background().
func RunContext(ctx context.Context, o Options) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	o = o.Normalize()
	if err := o.validate(); err != nil {
		return nil, err
	}
	bucket, err := o.bucket()
	if err != nil {
		return nil, err
	}
	s, err := o.scheduler()
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(workload.Config{
		Bucket:           bucket,
		Batches:          o.Batches,
		MeanJobsPerBatch: o.MeanJobsPerBatch,
		BatchInterval:    o.BatchIntervalSec,
		Seed:             o.WorkloadSeed,
	})
	if err != nil {
		return nil, err
	}
	cfg := o.engineConfig()
	tracer, aud := o.tracer()
	var chk *invariant.Checker
	if o.Verify {
		chk = invariant.New()
		tracer = MultiTracer(tracer, chk)
	}
	cfg.Tracer = tracer
	res, err := engine.RunContext(ctx, cfg, s, gen.Generate())
	if err != nil {
		return nil, err
	}
	if chk != nil {
		if vs := chk.Finish(); len(vs) > 0 {
			return nil, &VerifyError{Violations: toViolations(vs), Total: chk.Total()}
		}
	}
	return newReport(o, res, aud), nil
}

// Sweep expands the grid described by spec — schedulers × buckets × network
// profiles × fault sets × replication seeds — and executes every cell
// concurrently on a GOMAXPROCS-bounded worker pool, returning one result
// per cell in deterministic grid order. Identical cells (equal normalized
// configurations) are simulated once and shared; each cell's metrics are
// bit-identical to running its CellOptions through Run serially.
func Sweep(spec SweepSpec) ([]SweepResult, error) {
	return SweepContext(context.Background(), spec, SweepConfig{})
}

// SweepContext is Sweep with cooperative cancellation and execution
// controls: bounded workers, incremental JSONL/CSV sinks fed in cell order,
// progress callbacks, and a crash-safe resume manifest (see SweepConfig).
// When the context fires mid-sweep, completed cells are already journaled
// in the manifest and ctx.Err() is returned; re-running the same sweep with
// the same ManifestPath re-executes only the incomplete cells.
func SweepContext(ctx context.Context, spec SweepSpec, cfg SweepConfig) ([]SweepResult, error) {
	cells, err := planSweep(spec)
	if err != nil {
		return nil, err
	}
	return sweep.RunCells(ctx, cells, sweep.Config{
		Workers:      cfg.Workers,
		JSONL:        cfg.JSONL,
		CSV:          cfg.CSV,
		ManifestPath: cfg.ManifestPath,
		Progress:     cfg.Progress,
	}, func(ctx context.Context, c sweep.Cell) (sweep.Metrics, error) {
		o, err := CellOptions(spec, c)
		if err != nil {
			return sweep.Metrics{}, err
		}
		r, err := RunContext(ctx, o)
		if err != nil {
			return sweep.Metrics{}, err
		}
		return sweepMetrics(r), nil
	})
}

// Compare runs the same workload and network under several schedulers and
// returns one report per scheduler, in order. The first report is the
// natural baseline for RelativeOOSeries.
func Compare(o Options, schedulers ...SchedulerName) ([]*Report, error) {
	return CompareContext(context.Background(), o, schedulers...)
}

// CompareContext is Compare with cooperative cancellation. The
// per-scheduler runs own private simulations, so they execute concurrently
// on the sweep executor, one cell per scheduler, bounded by GOMAXPROCS;
// each run is independently seeded, so reports do not depend on worker
// interleaving and arrive in scheduler order. On failure the lowest-index
// run's own error is returned regardless of which worker hit an error
// first, and a run that panics comes back as a *SweepCellError. When
// Options.Trace is set the runs execute one after another — a shared
// Tracer is not safe for concurrent Emit, and sequential runs keep the
// caller's event stream in scheduler order.
func CompareContext(ctx context.Context, o Options, schedulers ...SchedulerName) ([]*Report, error) {
	if len(schedulers) == 0 {
		schedulers = []SchedulerName{ICOnly, Greedy, OrderPreserving, SIBS}
	}
	cells := make([]sweep.Cell, len(schedulers))
	for i, name := range schedulers {
		cells[i] = sweep.Cell{Index: i, Scheduler: string(name), Bucket: string(o.Bucket), Seed: o.WorkloadSeed}
	}
	var cfg sweep.ExecConfig[*Report]
	if o.Trace != nil {
		cfg.Workers = 1
	}
	out, err := sweep.Exec(ctx, cells, cfg, func(ctx context.Context, c sweep.Cell) (*Report, error) {
		run := o
		run.Scheduler = schedulers[c.Index]
		return RunContext(ctx, run)
	})
	var ce *SweepCellError
	if errors.As(err, &ce) && ce.Err != nil {
		return nil, ce.Err
	}
	return out, err
}

package engine

import (
	"context"
	"fmt"

	"cloudburst/internal/cluster"
	"cloudburst/internal/job"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/sim"
	"cloudburst/internal/sla"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

// Run executes the workload under the given scheduler and returns the SLA
// summary. The run is fully deterministic for a fixed (config, scheduler,
// workload) triple.
func Run(cfg Config, s sched.Scheduler, batches []workload.Batch) (*Result, error) {
	return RunContext(context.Background(), cfg, s, batches)
}

// RunContext is Run with cooperative cancellation: the drive loop checks
// ctx periodically and returns ctx.Err() when it fires. Cancellation does
// not affect determinism — a run that completes is bit-identical to Run.
//
// A run is a finite Serve: the batches feed the same admission path and
// drive loop from a slice source, and the run ends once the source is
// exhausted and every admitted job is done. Batches must come in
// non-decreasing arrival order, as workload.Generator emits them: each
// arrival is scheduled only once the batch before it has been fed.
func RunContext(ctx context.Context, cfg Config, s sched.Scheduler, batches []workload.Batch) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := prepareConfig(cfg)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(cfg, s, cfg.Tracer, false)
	if err != nil {
		return nil, err
	}
	return e.run(ctx, batches)
}

// run drives a freshly built finite engine through batches. Unlike Serve,
// cancellation aborts with ctx.Err() and no partial result, and the arena
// returns to the pool only after a clean finish.
func (e *Engine) run(ctx context.Context, batches []workload.Batch) (*Result, error) {
	srv := &server{e: e, src: workload.NewSliceSource(batches), finite: true}
	srv.start(0)
	if _, err := srv.drive(ctx); err != nil {
		return nil, err
	}
	res := e.resultFrom(srv.tseq, srv.fedJobs)
	e.release()
	return res, nil
}

// newEngine is the one construction path: it wires the substrates, starts
// the autoscaler, and opens the event stream and the rental clock. Finite
// runs draw their allocation backbone from the arena pool (see arena.go);
// streaming runs, whose slot population is open-ended, and Reference mode,
// which must exercise the naive structures with no reuse, build theirs
// fresh.
func newEngine(cfg Config, s sched.Scheduler, tracer trace.Tracer, streaming bool) (*Engine, error) {
	e := &Engine{
		cfg:       cfg,
		sched:     s,
		tracer:    tracer,
		records:   sla.NewSet(),
		streaming: streaming,
		// IDs come from the source through this counter — the same one
		// chunking draws from — so chunk IDs never collide with jobs.
		alloc: job.NewCounter(0),
	}
	switch {
	case cfg.Reference:
		e.eng = sim.NewReference()
	case streaming:
		e.eng = sim.NewEngine()
	default:
		e.arena = acquireArena()
		e.eng = e.arena.engine()
		e.states, e.estCache = e.arena.states, e.arena.estCache
	}
	e.compileMask()
	e.build()
	if cfg.Autoscale != nil {
		scaler, err := startAutoscaler(e, *cfg.Autoscale)
		if err != nil {
			return nil, err
		}
		e.scaler = scaler
	}
	e.emitRunConfigured()
	e.startMetering()
	return e, nil
}

// prepareConfig applies defaults and validates the fault model; both Run
// and the streaming Serve enter the engine through it.
func prepareConfig(cfg Config) (Config, error) {
	cfg = cfg.withDefaults()
	if cfg.Faults != nil {
		ff := cfg.Faults.withDefaults()
		if err := ff.Validate(); err != nil {
			return cfg, fmt.Errorf("engine: invalid fault config: %w", err)
		}
		cfg.Faults = &ff
	}
	if cfg.Shards != nil && cfg.Shards.Count > 1 && cfg.NewScheduler == nil {
		return cfg, fmt.Errorf("engine: sharded scheduling requires a NewScheduler factory")
	}
	return cfg, nil
}

// emitRunConfigured opens the event stream with the cluster shape so the
// auditor can recompute utilization denominators from events alone.
func (e *Engine) emitRunConfigured() {
	if !e.wants(trace.RunConfigured) {
		return
	}
	ev := trace.Event{
		Type: trace.RunConfigured, T: e.eng.Now(),
		ICMachines: e.cfg.ICMachines, ECMachines: e.cfg.ECMachines,
		ECSpeed: machineSpeed, Autoscale: e.cfg.Autoscale != nil,
		Scheduler:     e.sched.Name(),
		LinkBWCeiling: maxThreadLimit(e.cfg.ThreadModel),
	}
	if e.meter != nil {
		ev.Rate = e.meter.Rate()
		ev.Budget = e.meter.Budget()
		ev.BillingSec = e.meter.BillingInterval()
	}
	e.tracer.Emit(ev)
}

// build wires the substrates: the IC, then the external clouds.
func (e *Engine) build() {
	cfg := e.cfg
	e.ic = cluster.New(e.eng, "ic", cfg.ICMachines)
	e.attachClusterTrace(e.ic)
	e.buildSites()
	e.ec = e.sites[0].cluster

	e.estimator = e.buildEstimator()

	if cfg.Rescheduling {
		sim.NewTicker(e.eng, reschedulingPeriod, func(now float64) { e.reschedule() })
	}

	if cfg.Faults != nil {
		e.buildFaults()
	}

	if cfg.Shards != nil && cfg.Shards.Count > 1 {
		e.coord = shard.NewCoordinator(*cfg.Shards, cfg.NewScheduler)
	}

	e.meter = newMeter(cfg)
}

// state snapshots the observable system for the scheduler: the primary
// EC's site state fills the EC and transfer fields, every other site
// becomes one RemoteSites entry. It walks the whole job table, so only
// scheduling rounds build it.
func (e *Engine) state() *sched.State {
	e.tallyPending()
	ps, queues, upQueues := e.siteState(e.sites[0])
	st := &sched.State{
		Now:               e.eng.Now(),
		ICBacklogStd:      e.ic.BacklogStdSeconds(),
		ICMachines:        e.ic.Size(),
		ICSpeed:           machineSpeed,
		ECBacklogStd:      ps.BacklogStd,
		ECMachines:        ps.Machines,
		ECSpeed:           ps.Speed,
		ECPendingStd:      ps.PendingStd,
		DownloadPending:   ps.DownloadPending,
		UploadChannels:    int(upQueues + 0.5),
		UploadBacklog:     ps.UploadBacklog,
		DownloadBacklog:   ps.DownloadBacklog,
		UploadQueues:      queues,
		PredictUploadBW:   ps.PredictUploadBW,
		PredictDownloadBW: ps.PredictDownloadBW,
		EstimateProc: func(f job.Features) float64 {
			return e.estimator.Estimate(f)
		},
		EstimateJob: e.estimateJob,
	}
	if remote := e.sites[1:]; len(remote) > 0 {
		st.RemoteSites = make([]sched.SiteState, len(remote))
		for i, s := range remote {
			st.RemoteSites[i], _, _ = e.siteState(s)
		}
	}
	if e.meter != nil {
		// The budget gate: schedulers quote each candidate burst through
		// the meter's own Charge so the engine's later commit reproduces
		// the identical float.
		st.BurstCharge = e.meter.Charge
		st.BudgetRemaining = e.meter.Remaining()
	}
	return st
}

// onBatch is step (3)-(4) of the architecture: the controller picks up the
// batch and invokes the scheduler.
func (e *Engine) onBatch(b workload.Batch) {
	if e.wants(trace.JobArrived) {
		for _, j := range b.Jobs {
			e.tracer.Emit(trace.Event{
				Type: trace.JobArrived, T: e.eng.Now(),
				JobID: j.ID, Seq: -1, Batch: b.Index,
				Arrival: j.ArrivalTime, StdSeconds: j.TrueProcTime,
				Bytes: j.InputSize, OutputBytes: j.OutputSize,
			})
		}
	}
	if e.coord != nil {
		e.onBatchSharded(b)
		return
	}
	before := e.alloc.Peek()
	// Every built-in scheduler but ICOnly estimates each job it is handed,
	// so the round's first estimate-cache miss may fit all the models the
	// round reads at once. ICOnly estimates nothing; its rounds stay lazy.
	if _, icOnly := e.sched.(sched.ICOnly); !icOnly {
		e.prepArmed, e.prepJobs = true, b.Jobs
	}
	decisions := e.sched.Schedule(b.Jobs, e.state(), e.alloc)
	e.prepArmed, e.prepJobs = false, nil
	e.chunks += e.alloc.Peek() - before
	e.total += len(decisions) - len(b.Jobs) // chunking grew the queue

	// SIBS publishes new size-interval bounds per batch.
	if sb, ok := e.sched.(sched.BoundsPublisher); ok {
		e.setBounds(sb.Bounds())
	}

	for _, d := range decisions {
		e.processDecision(d, b.Index, 0, 0, 0, 0)
	}
}

// processDecision commits one placement: state registration, trace
// emission, cost commit and pipeline submission. The monolithic path
// passes zero shard/epoch/attempt and machine, reproducing the historical
// event stream bit-for-bit; sharded commits stamp their provenance
// (1-based shard, snapshot epoch, claimed machine or -1, placement round).
func (e *Engine) processDecision(d sched.Decision, batch, shard1, epoch, machine, attempt int) {
	if d.BudgetDenied {
		e.budgetDenied++
	}
	js := e.newJobState()
	*js = jobState{j: d.Job, seq: e.seqNext, place: d.Place}
	e.seqNext++
	e.setState(d.Job.ID, js)
	if e.wants(trace.Chunked) && d.Job.IsChunk() {
		e.tracer.Emit(trace.Event{
			Type: trace.Chunked, T: e.eng.Now(),
			JobID: d.Job.ID, Seq: -1, Parent: d.Job.ParentID, Batch: batch,
			Arrival: d.Job.ArrivalTime, StdSeconds: d.Job.TrueProcTime,
			Bytes: d.Job.InputSize, OutputBytes: d.Job.OutputSize,
		})
	}
	if e.wants(trace.PlacementDecided) {
		e.tracer.Emit(trace.Event{
			Type: trace.PlacementDecided, T: e.eng.Now(),
			JobID: d.Job.ID, Seq: js.seq, Batch: batch,
			Where: d.Place.String(), Site: d.Site,
			EstProc: d.EstProcStd, EstEC: d.EstEC,
			Threshold: d.Threshold, Gated: d.Gated,
			Bytes: d.Job.InputSize, OutputBytes: d.Job.OutputSize,
			Arrival: d.Job.ArrivalTime,
			Shard:   shard1, Epoch: epoch, Machine: machine, Attempt: attempt,
		})
	}
	if d.Place == sched.PlaceIC {
		e.submitIC(js)
		return
	}
	e.commitBurst(js, d.EstProcStd, e.eng.Now())
	// A site index out of range bursts to the primary EC.
	if d.Site > 0 && d.Site < len(e.sites) {
		js.site = d.Site
	}
	e.sites[js.site].bursts++
	e.submitUpload(js)
}

// submitIC runs the job on the internal cloud; its output is locally
// available the moment processing ends.
func (e *Engine) submitIC(js *jobState) {
	t := &cluster.Task{
		Job:        js.j,
		StdSeconds: js.j.TrueProcTime,
		OnDone: func(at float64, t *cluster.Task, m *cluster.Machine) {
			js.icTask = nil
			e.observeProc(js.j, at-t.StartedAt)
			e.complete(js, at, sla.IC)
		},
	}
	js.icTask = t
	e.ic.Submit(t)
}

// observeProc feeds the QRSM with the measured processing time; every
// machine runs at standard speed, so wall time is standard time.
func (e *Engine) observeProc(j *job.Job, wallSeconds float64) {
	if wallSeconds <= 0 {
		return
	}
	e.estimator.Observe(j.Features, wallSeconds)
}

// maxThreadLimit returns the highest per-transfer bandwidth the thread
// model permits at any thread count — the ceiling advertised to invariant
// checkers via RunConfigured.
func maxThreadLimit(tm netsim.ThreadModel) float64 {
	max := tm.MaxThread
	if max <= 0 {
		max = 64
	}
	best := 0.0
	for n := 1; n <= max; n++ {
		if l := tm.Limit(n); l > best {
			best = l
		}
	}
	return best
}

// complete lands a finished output in the result queue.
func (e *Engine) complete(js *jobState, at float64, where sla.Where) {
	if js.done {
		return
	}
	js.done = true
	e.completed++
	e.records.MustAdd(sla.Record{
		Seq:         js.seq,
		JobID:       js.j.ID,
		BatchID:     js.j.BatchID,
		OutputSize:  js.j.OutputSize,
		ArrivalTime: js.j.ArrivalTime,
		CompletedAt: at,
		Where:       where,
	})
	if e.wants(trace.JobDelivered) {
		e.tracer.Emit(trace.Event{
			Type: trace.JobDelivered, T: at,
			JobID: js.j.ID, Seq: js.seq, Batch: js.j.BatchID,
			Where: where.String(), Site: js.site,
			Arrival: js.j.ArrivalTime, OutputBytes: js.j.OutputSize,
		})
	}
	if js.j.ID >= 0 && js.j.ID < len(e.states) {
		// The slot is finished: release it, so an open-ended run does not
		// hold state for every job ever served. Every consumer of the dense
		// table skips nil and done slots alike.
		e.states[js.j.ID] = nil
	}
}

// resultFrom assembles the summary from the workload totals the admission
// path tallied batch by batch as the source fed.
func (e *Engine) resultFrom(tseq float64, originalJobs int) *Result {
	end := e.records.End()
	primary := e.sites[0]
	r := &Result{
		Scheduler:             e.sched.Name(),
		Records:               e.records,
		TSeq:                  tseq,
		Makespan:              e.records.Makespan(),
		Speedup:               e.records.Speedup(tseq),
		BurstRatio:            e.records.BurstRatio(),
		ICUtil:                e.ic.UtilizationAt(end),
		ECUtil:                e.ecUtilAt(end),
		Jobs:                  e.records.Len(),
		OriginalJobs:          originalJobs,
		ChunksCreated:         e.chunks,
		UploadedBytes:         e.uploadedBytes,
		DownloadedBytes:       e.downloadedBytes,
		FinalThreads:          primary.upTuner.Threads(),
		QRSMR2:                e.estimator.GlobalModel().SettledR2(),
		PredictorObservations: primary.upPred.Observations(),
		ECRevocations:         e.ec.Revoked(),
		TransferStalls:        e.stalls,
		TransferAborts:        e.aborts,
		Retries:               e.retries,
		Fallbacks:             e.fallbks,
		BudgetDenials:         e.budgetDenied,
		Conflicts:             e.conflicts,
		Replacements:          e.replacements,
		CommitRetries:         e.commitRetries,
	}
	if e.icFaults != nil {
		r.ICCrashes = e.icFaults.Failures()
	}
	if primary.prober != nil {
		r.ProbeCount = primary.prober.Count()
	}
	for _, site := range e.sites[1:] {
		r.SiteBursts = append(r.SiteBursts, site.bursts)
		r.SiteUtils = append(r.SiteUtils, site.cluster.UtilizationAt(end))
	}
	r.ECMachineSeconds = e.ec.MachineSeconds(end)
	r.ECPeakMachines = e.ec.PeakMachines()
	if e.scaler != nil {
		r.ECBoots = e.scaler.bootCount
		r.ECDrains = e.scaler.drainCount
	}
	e.fillCostResult(r, end)
	return r
}

// ecUtilAt picks the utilization basis: rented machine-time under
// autoscaling or once any machine was revoked (the fixed-fleet denominator
// stops being meaningful), the fixed-fleet definition (eq. 9) otherwise.
func (e *Engine) ecUtilAt(end float64) float64 {
	if e.scaler != nil || e.ec.Revoked() > 0 {
		return e.ec.UtilizationRented(end)
	}
	return e.ec.UtilizationAt(end)
}

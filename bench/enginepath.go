package main

import (
	"context"
	"errors"

	"cloudburst"
	"cloudburst/internal/engine"
	"cloudburst/internal/netsim"
	"cloudburst/internal/sched"
	"cloudburst/internal/shard"
	"cloudburst/internal/sweep"
	"cloudburst/internal/trace"
	"cloudburst/internal/window"
	"cloudburst/internal/workload"
)

// enginePlan is what cloudburst.Run and cloudburst.Serve derive from
// Options before they enter the engine, rebuilt here so the traced path can
// wrap the scheduler, the arrival source and the tracer. It covers only the
// options the workloads set; the digest checks fail if it drifts from the
// library's own mapping.
type enginePlan struct {
	opts     cloudburst.Options // normalized
	cfg      engine.Config
	bucket   workload.Bucket
	newSched func() sched.Scheduler
}

func planEngine(o cloudburst.Options) (*enginePlan, error) {
	o = o.Normalize()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if o.Faults != nil || o.Cost != nil || len(o.ExtraECSites) > 0 || o.OutageMTBF > 0 || o.AutoscaleECMax > 0 {
		return nil, errors.New("bench: the engine-level path does not map faults, cost, extra sites, outages or autoscaling")
	}
	p := &enginePlan{opts: o}
	switch o.Bucket {
	case cloudburst.Small:
		p.bucket = workload.SmallBias
	case cloudburst.Large:
		p.bucket = workload.LargeBias
	default:
		p.bucket = workload.UniformMix
	}
	sc := sched.Config{SlackMargin: o.SlackMarginSec}
	p.newSched = func() sched.Scheduler {
		switch o.Scheduler {
		case cloudburst.ICOnly:
			return sched.ICOnly{}
		case cloudburst.Greedy:
			return sched.Greedy{}
		case cloudburst.GreedyTracking:
			return sched.GreedyTracking{}
		case cloudburst.SIBS:
			return &sched.SIBS{Cfg: sc}
		default:
			return sched.OrderPreserving{Cfg: sc}
		}
	}
	p.cfg = engine.Config{
		ICMachines:      o.ICMachines,
		ECMachines:      o.ECMachines,
		JitterCV:        o.JitterCV,
		NetSeed:         o.NetSeed,
		Rescheduling:    o.Rescheduling,
		SchedConfig:     sc,
		UploadProfile:   netsim.DiurnalProfile(o.UploadMeanBW, o.DiurnalAmplitude),
		DownloadProfile: netsim.DiurnalProfile(o.DownloadMeanBW, o.DiurnalAmplitude),
	}
	if s := o.Shards; s != nil && s.Count > 1 {
		seed := s.Seed
		if seed == 0 {
			seed = sweep.DeriveSeed(o.WorkloadSeed, "shard-partition")
		}
		p.cfg.Shards = &shard.Config{
			Count:      s.Count,
			Disjoint:   s.Partition == cloudburst.ShardPartitionDisjoint,
			Seed:       seed,
			MaxRetries: s.MaxRetries,
		}
	}
	return p, nil
}

// scheduler attaches the instrumentation to the plan and returns the run's
// scheduler. With tr nil it only attaches extra.
func (p *enginePlan) scheduler(tr *opTrace, extra trace.Tracer) sched.Scheduler {
	p.cfg.Tracer = trace.Multi(tr.sink(), extra)
	newSched := p.newSched
	if tr != nil {
		newSched = func() sched.Scheduler { return timed(p.newSched(), tr) }
	}
	if p.cfg.Shards != nil {
		p.cfg.NewScheduler = newSched
	}
	return newSched()
}

// runEngine executes o the way cloudburst.Run does, through
// engine.RunContext. A non-nil tr instruments the run; extra, when set, also
// receives every event.
func runEngine(ctx context.Context, o cloudburst.Options, tr *opTrace, extra trace.Tracer) (*engine.Result, error) {
	done := tr.span(spanConfig)
	p, err := planEngine(o)
	var gen *workload.Generator
	if err == nil {
		gen, err = workload.NewGenerator(workload.Config{
			Bucket:           p.bucket,
			Batches:          p.opts.Batches,
			MeanJobsPerBatch: p.opts.MeanJobsPerBatch,
			BatchInterval:    p.opts.BatchIntervalSec,
			Seed:             p.opts.WorkloadSeed,
		})
	}
	done()
	if err != nil {
		return nil, err
	}
	done = tr.span(spanGenerate)
	batches := gen.Generate()
	done()
	s := p.scheduler(tr, extra)
	tr.enter()
	defer tr.exit()
	return engine.RunContext(ctx, p.cfg, s, batches)
}

// serveEngine executes so the way cloudburst.Serve does, through
// engine.Serve, handing each window to onWindow. It covers the diurnal
// arrival pattern only.
func serveEngine(ctx context.Context, so cloudburst.ServiceOptions, tr *opTrace, extra trace.Tracer, onWindow func(window.Report)) (*engine.StreamResult, error) {
	done := tr.span(spanConfig)
	p, err := planEngine(so.Options)
	var src workload.Source
	if err == nil && so.Arrivals != "" && so.Arrivals != cloudburst.DiurnalArrivals {
		err = errors.New("bench: the engine-level path covers diurnal arrivals only")
	}
	if err == nil {
		src, err = workload.NewStream(workload.StreamConfig{
			Bucket:           p.bucket,
			Interval:         p.opts.BatchIntervalSec,
			BaseJobsPerBatch: p.opts.MeanJobsPerBatch,
			Seed:             p.opts.WorkloadSeed,
		})
	}
	done()
	if err != nil {
		return nil, err
	}
	if tr != nil {
		src = timedSource{src, tr}
	}
	s := p.scheduler(tr, extra)
	tr.enter()
	defer tr.exit()
	return engine.Serve(ctx, p.cfg, s, src, engine.StreamConfig{
		Window:      so.WindowSec,
		Duration:    so.DurationSec,
		RefitPeriod: so.RefitPeriodSec,
		OnWindow:    onWindow,
	})
}

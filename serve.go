package cloudburst

import (
	"context"
	"errors"

	"cloudburst/internal/engine"
	"cloudburst/internal/invariant"
	"cloudburst/internal/sched"
	"cloudburst/internal/trace"
	"cloudburst/internal/window"
	"cloudburst/internal/workload"
)

// ArrivalPattern selects the shape of the open-ended arrival process used
// by Serve.
type ArrivalPattern string

// The available arrival patterns.
const (
	// SteadyArrivals holds the batch-size rate flat at MeanJobsPerBatch.
	SteadyArrivals ArrivalPattern = "steady"
	// DiurnalArrivals follows the production day-shape (see
	// workload.DiurnalDemand): quiet nights, a business-day plateau and an
	// afternoon peak. This is the default.
	DiurnalArrivals ArrivalPattern = "diurnal"
	// FlashCrowdArrivals is DiurnalArrivals plus Markov-modulated bursts:
	// at seeded but unpredictable instants the rate multiplies by
	// BurstFactor for exponentially-distributed stretches.
	FlashCrowdArrivals ArrivalPattern = "flashcrowd"
)

// ArrivalPatterns lists every selectable arrival pattern.
func ArrivalPatterns() []ArrivalPattern {
	return []ArrivalPattern{SteadyArrivals, DiurnalArrivals, FlashCrowdArrivals}
}

// WindowReport is one rolling window of service metrics: arrival and
// completion flow, burst ratio, per-cluster utilization, ordered-output
// progress and sojourn percentiles, all computed over [Start, End).
type WindowReport = window.Report

// ServiceOptions configures an always-on streaming run. The embedded
// Options keep their meaning (Batches is ignored — a service has no batch
// count), and the zero value serves the paper test bed under diurnal
// arrivals with 10-minute metric windows until cancelled.
type ServiceOptions struct {
	Options

	// Arrivals selects the arrival process shape (default DiurnalArrivals).
	Arrivals ArrivalPattern
	// Flash-crowd shape, consulted only for FlashCrowdArrivals: the rate
	// multiplier while a burst is active (default 6), the mean burst length
	// (default 900 s) and the mean quiet gap between bursts (default 7200 s).
	BurstFactor     float64
	BurstMeanSec    float64
	BurstSpacingSec float64

	// WindowSec is the metric window length in virtual seconds (default
	// 600). Window boundaries are simulation events, so this also shapes
	// the deterministic trajectory — it cannot change across a restore.
	WindowSec float64
	// DurationSec bounds the served virtual time; batches arriving past it
	// are not admitted. Zero serves until MaxJobs, source exhaustion or
	// context cancellation.
	DurationSec float64
	// MaxJobs bounds how many jobs are admitted (zero: unbounded). It
	// cannot be combined with Restore: a job budget below the restored
	// prefix would corrupt the replay.
	MaxJobs int
	// RefitPeriodSec forces a QRSM refit this often (default 600; negative
	// disables the ticker). Like WindowSec, it is part of the deterministic
	// trajectory and survives restores unchanged.
	RefitPeriodSec float64

	// CheckpointAtEnd suspends the run at the DurationSec deadline instead
	// of draining it — in-flight transfers and queued work stay live in the
	// saved state — and makes Service.Checkpoint return a blob that a later
	// call can pass as Restore. Requires DurationSec > 0 and MaxJobs == 0.
	CheckpointAtEnd bool
	// Restore resumes a run from a checkpoint blob. The simulation-defining
	// configuration (everything except DurationSec, CheckpointAtEnd, Trace,
	// Audit and Verify, which are taken from this call) comes from the
	// blob, and DurationSec means additional serving time beyond what the
	// checkpointed run already served. Windows delivered before the
	// checkpoint are not redelivered; the Audit auditor likewise folds
	// only the continuation.
	Restore []byte
}

func (o ServiceOptions) normalizeService() ServiceOptions {
	o.Options = o.Options.Normalize()
	if o.Arrivals == "" {
		o.Arrivals = DiurnalArrivals
	}
	if o.WindowSec == 0 {
		o.WindowSec = 600
	}
	if o.RefitPeriodSec == 0 {
		o.RefitPeriodSec = 600
	}
	if o.Arrivals == FlashCrowdArrivals {
		if o.BurstFactor == 0 {
			o.BurstFactor = 6
		}
		if o.BurstMeanSec == 0 {
			o.BurstMeanSec = 900
		}
		if o.BurstSpacingSec == 0 {
			o.BurstSpacingSec = 7200
		}
	}
	return o
}

func (o ServiceOptions) validateService(restoring bool) error {
	if err := o.Options.validate(); err != nil {
		return err
	}
	if err := checkFinite("", []floatField{
		{"BurstFactor", o.BurstFactor},
		{"BurstMeanSec", o.BurstMeanSec},
		{"BurstSpacingSec", o.BurstSpacingSec},
		{"WindowSec", o.WindowSec},
		{"DurationSec", o.DurationSec},
		{"RefitPeriodSec", o.RefitPeriodSec},
	}); err != nil {
		return err
	}
	switch o.Arrivals {
	case SteadyArrivals, DiurnalArrivals, FlashCrowdArrivals:
	default:
		return optErr("Arrivals", o.Arrivals, "is not a known arrival pattern")
	}
	switch {
	case o.WindowSec <= 0:
		return optErr("WindowSec", o.WindowSec, "must be positive")
	case o.DurationSec < 0:
		return optErr("DurationSec", o.DurationSec, "must not be negative")
	case o.MaxJobs < 0:
		return optErr("MaxJobs", o.MaxJobs, "must not be negative")
	}
	if o.Arrivals == FlashCrowdArrivals {
		switch {
		case o.BurstFactor < 1:
			return optErr("BurstFactor", o.BurstFactor, "must be at least 1")
		case o.BurstMeanSec <= 0:
			return optErr("BurstMeanSec", o.BurstMeanSec, "must be positive")
		case o.BurstSpacingSec <= 0:
			return optErr("BurstSpacingSec", o.BurstSpacingSec, "must be positive")
		}
	}
	if o.CheckpointAtEnd && (o.DurationSec <= 0 || o.MaxJobs != 0) {
		return optErr("CheckpointAtEnd", true, "requires DurationSec > 0 and MaxJobs == 0")
	}
	if restoring && o.MaxJobs != 0 {
		return optErr("MaxJobs", o.MaxJobs, "cannot be combined with Restore")
	}
	return nil
}

// streamConfig maps the options onto the arrival process.
func (o ServiceOptions) streamConfig(bucket workload.Bucket) workload.StreamConfig {
	sc := workload.StreamConfig{
		Bucket:           bucket,
		Interval:         o.BatchIntervalSec,
		BaseJobsPerBatch: o.MeanJobsPerBatch,
		Seed:             o.WorkloadSeed,
	}
	switch o.Arrivals {
	case SteadyArrivals:
		base := o.MeanJobsPerBatch
		sc.Rate = func(float64) float64 { return base }
	case FlashCrowdArrivals:
		sc.Burst = &workload.BurstConfig{
			Factor:       o.BurstFactor,
			MeanDuration: o.BurstMeanSec,
			MeanGap:      o.BurstSpacingSec,
		}
	}
	return sc
}

// ServeReport is the end-of-run summary of a streaming service. The
// embedded Report carries the usual SLA metrics over the whole logical run
// (a restored run includes its replayed prefix).
type ServeReport struct {
	*Report
	Fed         int     // original jobs admitted
	FedBatches  int     // batches admitted, empty ones included
	Windows     int     // metric windows flushed
	VirtualTime float64 // virtual clock at stop, seconds
	StopCause   string  // "duration", "maxjobs", "cancelled", "source" or "suspended"
	// Fingerprint is the rolling FNV-64a hash of the trace's discrete
	// fields over TraceEvents events, continued across checkpoint/restore:
	// a split run and an unsplit run of the same configuration finish with
	// identical fingerprints.
	Fingerprint uint64
	TraceEvents uint64
}

// Service is a running streaming simulation. Consume Reports (or call Wait,
// which drains them) — window delivery applies backpressure, so an
// unconsumed stream eventually blocks the simulation until the context is
// cancelled.
type Service struct {
	reports    chan WindowReport
	done       chan struct{}
	rep        *ServeReport
	err        error
	checkpoint []byte
}

// Reports streams each metric window as the simulation closes it. The
// channel closes when the run ends.
func (s *Service) Reports() <-chan WindowReport { return s.reports }

// Wait drains any unread window reports and blocks until the run ends,
// returning the final report. Cancellation is a clean stop, not an error:
// the run drains its admitted jobs and reports StopCause "cancelled".
func (s *Service) Wait() (*ServeReport, error) {
	for range s.reports {
	}
	<-s.done
	return s.rep, s.err
}

// Checkpoint returns the checkpoint blob of a finished run that was
// started with CheckpointAtEnd. Call it after Wait.
func (s *Service) Checkpoint() ([]byte, error) {
	select {
	case <-s.done:
	default:
		return nil, errors.New("cloudburst: service still running; call Wait first")
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.checkpoint == nil {
		return nil, errors.New("cloudburst: run was not suspended for a checkpoint; set CheckpointAtEnd")
	}
	return s.checkpoint, nil
}

// Serve starts an always-on streaming run: an open-ended arrival process
// (diurnal by default, optionally with flash crowds) drives the same
// simulated scheduler as Run, rolling-window metrics stream out on
// Service.Reports, and the run ends on its configured budget or when ctx
// fires. Runs are deterministic: identical ServiceOptions yield identical
// window streams, reports and trace fingerprints.
//
// With CheckpointAtEnd the run suspends at its deadline and
// Service.Checkpoint returns a blob; passing that blob as Restore continues
// the service exactly where it left off — the split run's trace fingerprint
// matches an unsplit run of the combined duration bit for bit.
func Serve(ctx context.Context, o ServiceOptions) (*Service, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var resume *engine.Checkpoint
	if len(o.Restore) > 0 {
		cf, err := decodeCheckpoint(o.Restore)
		if err != nil {
			return nil, err
		}
		merged := cf.Service
		merged.DurationSec = o.DurationSec
		merged.MaxJobs = o.MaxJobs
		merged.CheckpointAtEnd = o.CheckpointAtEnd
		merged.Trace = o.Trace
		merged.Audit = o.Audit
		merged.Verify = o.Verify
		o = merged
		eng := cf.Engine
		resume = &eng
	}
	o = o.normalizeService()
	if err := o.validateService(resume != nil); err != nil {
		return nil, err
	}
	bucket, err := o.bucket()
	if err != nil {
		return nil, err
	}
	schd, err := o.scheduler()
	if err != nil {
		return nil, err
	}
	src, err := workload.NewStream(o.streamConfig(bucket))
	if err != nil {
		return nil, err
	}

	cfg := o.engineConfig()
	var aud *trace.Auditor
	cfg.Tracer, aud = o.tracer()

	var chk *invariant.Checker
	s := &Service{
		reports: make(chan WindowReport, 16),
		done:    make(chan struct{}),
	}
	sc := engine.StreamConfig{
		Window:               o.WindowSec,
		Duration:             o.DurationSec,
		MaxJobs:              o.MaxJobs,
		RefitPeriod:          o.RefitPeriodSec,
		SuspendForCheckpoint: o.CheckpointAtEnd,
		Resume:               resume,
		OnWindow: func(rep window.Report) {
			select {
			case s.reports <- rep:
			case <-ctx.Done():
			}
		},
	}
	if o.Verify {
		chk = invariant.New()
		sc.Observer = chk
	}

	go s.run(ctx, cfg, schd, src, sc, o, aud, chk)
	return s, nil
}

func (s *Service) run(ctx context.Context, cfg engine.Config, schd sched.Scheduler, src workload.Source, sc engine.StreamConfig, o ServiceOptions, aud *trace.Auditor, chk *invariant.Checker) {
	defer close(s.done)
	res, err := engine.Serve(ctx, cfg, schd, src, sc)
	close(s.reports)
	if err != nil {
		s.err = err
		return
	}
	if chk != nil {
		// A suspended run legitimately has open transfers and busy
		// machines — its continuation owns them — so only a drained run
		// takes the end-of-stream checks.
		vs := chk.Current()
		if res.StopCause != engine.StopSuspended {
			vs = chk.Finish()
		}
		if len(vs) > 0 {
			s.err = &VerifyError{Violations: toViolations(vs), Total: chk.Total()}
			return
		}
	}
	if res.Checkpoint != nil {
		blob, err := encodeCheckpoint(checkpointFile{Service: o, Engine: *res.Checkpoint})
		if err != nil {
			s.err = err
			return
		}
		s.checkpoint = blob
	}
	s.rep = &ServeReport{
		Report:      newReport(o.Options, res.Result, aud),
		Fed:         res.Fed,
		FedBatches:  res.FedBatches,
		Windows:     res.Windows,
		VirtualTime: res.VirtualTime,
		StopCause:   res.StopCause,
		Fingerprint: res.Fingerprint,
		TraceEvents: res.TraceEvents,
	}
}

package engine

import (
	"context"
	"fmt"

	"cloudburst/internal/sched"
	"cloudburst/internal/sim"
	"cloudburst/internal/trace"
	"cloudburst/internal/window"
	"cloudburst/internal/workload"
)

// Streaming service mode: Serve drives the same engine as Run, but against
// an open-ended workload.Source instead of a finite batch slice — Run is a
// finite Serve, sharing its construction (newEngine), admission
// (server.feed) and drive loop (server.drive). Batches are pulled lazily
// (the next batch is fetched only when the previous one is fed),
// rolling-window SLA metrics are flushed on a fixed virtual-time period,
// the QRSM keeps refitting as completions stream in, and the run ends by
// budget — virtual-time duration, job count, source exhaustion or context
// cancellation — rather than by workload completion.
//
// # Checkpoint/restore
//
// The engine's state is a web of closures in the event heap, which no
// byte-level snapshot can capture. But the simulation is deterministic: the
// entire trajectory is a pure function of (Config, Scheduler, Source). A
// Checkpoint is therefore a replay cursor — the count of fired events plus
// a handful of integrity fields — and Restore rebuilds the run from
// configuration and silently replays the prefix, arriving at the identical
// state bit for bit. During replay the caller's tracer and the rolling
// fingerprint are gated off (those events were already delivered by the
// run that wrote the checkpoint), while the window collector and any
// Observer keep watching, because their window state must span the cut.
//
// Suspension semantics make the cut exact: a run that will be checkpointed
// stops at the first event past its deadline without draining — in-flight
// transfers and queued work stay live in the replayable prefix — so the
// continuation fires exactly the events the unsplit run would have fired.

// Stop causes reported on StreamResult.StopCause.
const (
	// StopDuration: the virtual-time budget elapsed and the tail drained.
	StopDuration = "duration"
	// StopMaxJobs: the fed-job budget was reached and the tail drained.
	StopMaxJobs = "maxjobs"
	// StopCancelled: the context fired; feeding stopped and the tail
	// drained cleanly (no fed job is lost).
	StopCancelled = "cancelled"
	// StopSource: the source reported exhaustion and the tail drained.
	StopSource = "source"
	// StopSuspended: the run halted at its deadline with in-flight state
	// intact, and StreamResult.Checkpoint can resume it.
	StopSuspended = "suspended"
)

// StreamConfig parameterizes a streaming run on top of the engine Config.
type StreamConfig struct {
	// Window is the metric flush period in virtual seconds (default 600).
	Window float64
	// Duration is the virtual-time feeding budget: no batch arriving after
	// this much served time is admitted. Zero means unbounded (stop by
	// MaxJobs, source exhaustion, or cancellation).
	Duration float64
	// MaxJobs stops feeding once this many jobs have been admitted. Zero
	// means unbounded.
	MaxJobs int
	// RefitPeriod forces a QRSM refit this often (default 600; negative
	// disables). Observations still trigger the estimator's own refits;
	// the ticker only bounds staleness through quiet stretches.
	RefitPeriod float64
	// OnWindow receives each flushed window synchronously from the
	// simulation loop. Windows already delivered before a checkpoint are
	// not redelivered on restore.
	OnWindow func(window.Report)
	// SuspendForCheckpoint halts at the Duration deadline without draining
	// so the run can be checkpointed; requires Duration > 0 and MaxJobs
	// == 0 (all other stops drain, which a checkpoint cannot represent).
	SuspendForCheckpoint bool
	// Resume replays the run up to the given checkpoint before going live.
	// The Config, Scheduler and Source must be identical to the run that
	// produced it; the replay verifies its integrity fields and fails with
	// a *RestoreMismatchError on any drift.
	Resume *Checkpoint
	// Observer, when set, receives the full event stream ungated — during
	// a restore replay it sees the prefix too, exactly like the run that
	// wrote the checkpoint. This is where the invariant checker attaches.
	Observer trace.Tracer
}

func (sc StreamConfig) withDefaults() StreamConfig {
	if sc.Window == 0 {
		sc.Window = 600
	}
	if sc.RefitPeriod == 0 {
		sc.RefitPeriod = 600
	}
	return sc
}

func (sc StreamConfig) validate() error {
	switch {
	case sc.Window <= 0:
		return fmt.Errorf("engine: non-positive stream window %v", sc.Window)
	case sc.Duration < 0:
		return fmt.Errorf("engine: negative stream duration %v", sc.Duration)
	case sc.MaxJobs < 0:
		return fmt.Errorf("engine: negative stream job budget %d", sc.MaxJobs)
	}
	if sc.SuspendForCheckpoint && (sc.Duration <= 0 || sc.MaxJobs != 0) {
		return fmt.Errorf("engine: checkpoint suspension requires a positive Duration and no MaxJobs budget")
	}
	if rc := sc.Resume; rc != nil {
		switch {
		case rc.Fired == 0:
			return fmt.Errorf("engine: checkpoint has no fired events")
		case rc.VirtualTime < 0:
			return fmt.Errorf("engine: checkpoint at negative virtual time %v", rc.VirtualTime)
		case rc.Served <= 0:
			return fmt.Errorf("engine: checkpoint with non-positive served budget %v", rc.Served)
		case rc.FedJobs < 0 || rc.FedBatches < 0 || rc.Completed < 0 || rc.Completed > rc.FedJobs+rc.Chunks:
			return fmt.Errorf("engine: checkpoint job accounting is inconsistent")
		}
	}
	return nil
}

// Checkpoint is a deterministic replay cursor: enough to re-drive an
// identically configured run to the exact suspended state, plus integrity
// fields the replay verifies and the rolling fingerprint the continuation
// resumes. It is plain data, JSON-encodable for versioned persistence.
type Checkpoint struct {
	Fired       uint64  `json:"fired"`       // events to replay
	VirtualTime float64 `json:"virtualTime"` // clock after the last replayed event
	Served      float64 `json:"served"`      // nominal duration budget consumed
	FedJobs     int     `json:"fedJobs"`
	FedBatches  int     `json:"fedBatches"`
	Chunks      int     `json:"chunks"`
	Completed   int     `json:"completed"`
	Windows     int     `json:"windows"` // windows flushed before the cut
	Fingerprint uint64  `json:"fingerprint"`
	Events      uint64  `json:"events"` // trace events folded into Fingerprint
}

// RestoreMismatchError reports a checkpoint whose replay did not arrive at
// the recorded state — the configuration, scheduler or source differs from
// the run that wrote it.
type RestoreMismatchError struct {
	Field string
	Want  any
	Got   any
}

func (e *RestoreMismatchError) Error() string {
	return fmt.Sprintf("engine: checkpoint replay mismatch on %s: checkpoint has %v, replay reached %v",
		e.Field, e.Want, e.Got)
}

// StreamResult summarizes a streaming run. Result covers the whole logical
// run — on a restored run the replayed prefix is included, so metrics keep
// describing the service since its original start.
type StreamResult struct {
	*Result
	Fed         int     // original jobs admitted (pre-chunking)
	FedBatches  int     // batches admitted (empty ones included)
	Windows     int     // windows flushed over the whole logical run
	VirtualTime float64 // clock at stop
	StopCause   string  // one of the Stop* constants
	// Checkpoint is set when StopCause is StopSuspended.
	Checkpoint *Checkpoint
	// Fingerprint is the rolling FNV-64a trace fingerprint (continued
	// across restores) and TraceEvents the event count folded into it.
	Fingerprint uint64
	TraceEvents uint64
}

// gatedTracer switches a sink off during checkpoint replay: the run that
// wrote the checkpoint already delivered those events.
type gatedTracer struct {
	inner trace.Tracer
	open  bool
}

func (g *gatedTracer) Emit(ev trace.Event) {
	if g.open && g.inner != nil {
		g.inner.Emit(ev)
	}
}

// server is the drive state wrapped around an Engine: it admits batches
// from a Source and steps the event loop. Run and Serve both drive through
// it; the window collector, fingerprint and replay gate exist only for
// Serve, so untraced finite runs pay for no event emission.
type server struct {
	e   *Engine
	src workload.Source
	sc  StreamConfig
	// finite marks a Run: cancellation aborts it with ctx.Err() instead of
	// stopping the feed and draining.
	finite bool

	col  *window.Collector
	fp   *trace.Fingerprint
	gate *gatedTracer

	replaying bool
	feeding   bool
	stopCause string
	deadline  float64 // absolute feeding deadline; -1 = unbounded

	fedJobs    int
	fedBatches int
	tseq       float64

	feedCb  sim.Callback
	pending workload.Batch
}

// start arms admission: the feeding deadline sits Duration past the
// already served budget, and the first batch is pulled and scheduled.
func (s *server) start(served float64) {
	s.feeding, s.deadline = true, -1
	if s.sc.Duration > 0 {
		s.deadline = served + s.sc.Duration
	}
	s.feedCb = func(now float64, arg any) { s.feed(arg.(*workload.Batch)) }
	s.scheduleNext()
}

// stopFeeding turns off admission; the first cause wins.
func (s *server) stopFeeding(cause string) {
	if !s.feeding {
		return
	}
	s.feeding = false
	s.stopCause = cause
}

// feed admits one batch: account it, run the scheduling round, and pull
// the next batch from the source.
func (s *server) feed(b *workload.Batch) {
	if !s.feeding {
		// A stop raced an already-scheduled arrival; the batch is dropped
		// before admission, so the drain owes it nothing.
		return
	}
	s.fedBatches++
	s.fedJobs += len(b.Jobs)
	for _, j := range b.Jobs {
		s.tseq += j.TrueProcTime
	}
	s.e.total += len(b.Jobs)
	s.e.onBatch(*b)
	if s.sc.MaxJobs > 0 && s.fedJobs >= s.sc.MaxJobs {
		s.stopFeeding(StopMaxJobs)
		return
	}
	s.scheduleNext()
}

// scheduleNext pulls the next batch and schedules its arrival, stopping
// the feed at source exhaustion or past the duration deadline. Declining a
// batch past the deadline does not disturb determinism of the admitted
// prefix: the skipped arrival lies strictly beyond every event a suspended
// run fires, so a later restore (with a longer deadline) that does admit
// it replays the identical prefix.
func (s *server) scheduleNext() {
	if !s.feeding {
		return
	}
	nb, ok := s.src.NextBatch(s.e.alloc)
	if !ok {
		s.stopFeeding(StopSource)
		return
	}
	if s.deadline >= 0 && nb.At > s.deadline {
		s.stopFeeding(StopDuration)
		return
	}
	s.pending = nb
	s.e.eng.ScheduleCall(nb.At, s.feedCb, &s.pending)
}

// drive is the one live drive loop. Perpetual tickers keep the queue
// non-empty, so a drained queue is always a bug. Termination:
//   - drain (source exhaustion, duration without checkpoint, job budget,
//     Serve cancellation): feeding is off and every admitted job has
//     completed;
//   - suspension: the next event lies past the deadline; stop without
//     firing it, leaving in-flight state to the checkpoint;
//   - abort: a finite run's context fired, or the virtual-time safety
//     valve tripped.
//
// Cancellation is polled before the first step — so an already-cancelled
// Run never starts the simulation, however short — and then every 1024
// steps, cheap enough to disappear in the hot path, frequent enough that
// long sweeps stop promptly.
func (s *server) drive(ctx context.Context) (suspended bool, err error) {
	e, eng := s.e, s.e.eng
	for steps := 0; ; steps++ {
		if steps&1023 == 0 && ctx.Err() != nil {
			if s.finite {
				return false, ctx.Err()
			}
			s.stopFeeding(StopCancelled)
		}
		if s.sc.SuspendForCheckpoint {
			// Suspension outranks drain-completion: even a run whose work
			// happens to finish early must stop exactly at the first event
			// past the deadline, or its fired-event count would diverge
			// from the unsplit run it has to be a prefix of.
			if t, ok := eng.NextEventTime(); !ok || t > s.deadline {
				suspended = true
				break
			}
		} else if !s.feeding && e.completed >= e.total {
			break
		}
		if !eng.Step() {
			return false, fmt.Errorf("engine: event queue drained with %d/%d jobs done", e.completed, e.total)
		}
		if eng.Now() > e.cfg.MaxVirtualTime {
			return false, fmt.Errorf("%w: %d/%d jobs done at t=%.0fs", ErrTimeout, e.completed, e.total, eng.Now())
		}
	}
	return suspended, nil
}

// flush closes the current metric window. Replayed windows were delivered
// by the run that wrote the checkpoint, so they advance the collector
// without reaching OnWindow.
func (s *server) flush(now float64) {
	rep, ok := s.col.Flush(now)
	if !ok || s.replaying {
		return
	}
	if s.sc.OnWindow != nil {
		s.sc.OnWindow(rep)
	}
}

// Serve runs the open-ended streaming mode. See the package comment at the
// top of this file for the execution and checkpoint model. The run is
// fully deterministic for a fixed (config, scheduler, source) triple;
// cancellation stops feeding and drains, so a cancelled run still delivers
// every job it admitted.
func Serve(ctx context.Context, cfg Config, s sched.Scheduler, src workload.Source, sc StreamConfig) (*StreamResult, error) {
	sr, _, err := serve(ctx, cfg, s, src, sc)
	return sr, err
}

// serve is Serve that also hands back the engine it drove, for tests that
// inspect its models afterwards.
func serve(ctx context.Context, cfg Config, s sched.Scheduler, src workload.Source, sc StreamConfig) (*StreamResult, *Engine, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := prepareConfig(cfg)
	if err != nil {
		return nil, nil, err
	}
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, nil, err
	}

	rc := sc.Resume
	srv := &server{src: src, sc: sc}
	if rc != nil {
		srv.fp = trace.ResumeFingerprint(rc.Fingerprint, rc.Events)
	} else {
		srv.fp = trace.NewFingerprint()
	}
	srv.gate = &gatedTracer{inner: trace.Multi(cfg.Tracer, srv.fp), open: rc == nil}
	srv.col = window.New(window.Config{Width: sc.Window})
	// The collector and the observer stay ungated: their cross-event state
	// (busy machines, the OO prefix, open transfers) must span a restore
	// cut, so they re-watch the replayed prefix.
	e, err := newEngine(cfg, s, trace.Multi(srv.col, sc.Observer, srv.gate), true)
	if err != nil {
		return nil, nil, err
	}
	srv.e = e
	eng := e.eng

	// The window ticker is a simulation event like any other: it fires at
	// identical instants in a replay, keeping window boundaries exact
	// across a checkpoint cut. It also keeps the event queue alive through
	// zero-arrival stretches.
	sim.NewTicker(eng, sc.Window, func(now float64) { srv.flush(now) })
	if sc.RefitPeriod > 0 {
		sim.NewTicker(eng, sc.RefitPeriod, func(now float64) { e.estimator.Refit() })
	}

	if rc != nil {
		srv.start(rc.Served)
	} else {
		srv.start(0)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Silent replay to the checkpoint cursor: determinism makes the first
	// rc.Fired events identical to the run that wrote the checkpoint, and
	// the integrity fields prove it afterwards.
	if rc != nil {
		srv.replaying = true
		for eng.Fired() < rc.Fired {
			if !eng.Step() {
				return nil, nil, &RestoreMismatchError{Field: "fired events", Want: rc.Fired, Got: eng.Fired()}
			}
			if eng.Fired()&8191 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
			}
		}
		switch {
		case eng.Now() != rc.VirtualTime:
			return nil, nil, &RestoreMismatchError{Field: "virtual time", Want: rc.VirtualTime, Got: eng.Now()}
		case srv.fedJobs != rc.FedJobs:
			return nil, nil, &RestoreMismatchError{Field: "fed jobs", Want: rc.FedJobs, Got: srv.fedJobs}
		case srv.fedBatches != rc.FedBatches:
			return nil, nil, &RestoreMismatchError{Field: "fed batches", Want: rc.FedBatches, Got: srv.fedBatches}
		case e.chunks != rc.Chunks:
			return nil, nil, &RestoreMismatchError{Field: "chunks", Want: rc.Chunks, Got: e.chunks}
		case e.completed != rc.Completed:
			return nil, nil, &RestoreMismatchError{Field: "completed jobs", Want: rc.Completed, Got: e.completed}
		case srv.col.Windows() != rc.Windows:
			return nil, nil, &RestoreMismatchError{Field: "windows", Want: rc.Windows, Got: srv.col.Windows()}
		}
		srv.replaying = false
		srv.gate.open = true
	}

	suspended, err := srv.drive(ctx)
	if err != nil {
		return nil, nil, err
	}
	sr := &StreamResult{
		Fed:         srv.fedJobs,
		FedBatches:  srv.fedBatches,
		VirtualTime: eng.Now(),
		StopCause:   srv.stopCause,
	}
	if suspended {
		sr.StopCause = StopSuspended
		sr.Checkpoint = &Checkpoint{
			Fired:       eng.Fired(),
			VirtualTime: eng.Now(),
			Served:      srv.deadline,
			FedJobs:     srv.fedJobs,
			FedBatches:  srv.fedBatches,
			Chunks:      e.chunks,
			Completed:   e.completed,
			Windows:     srv.col.Windows(),
			Fingerprint: srv.fp.Sum64(),
			Events:      srv.fp.Events(),
		}
	} else {
		// Close the partial window of the drained tail. A suspended run
		// must not: its continuation still owns that window.
		srv.flush(eng.Now())
	}
	sr.Result = e.resultFrom(srv.tseq, srv.fedJobs)
	sr.Windows = srv.col.Windows()
	sr.Fingerprint = srv.fp.Sum64()
	sr.TraceEvents = srv.fp.Events()
	return sr, e, nil
}

package main

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"cloudburst/internal/job"
	"cloudburst/internal/sched"
	"cloudburst/internal/trace"
	"cloudburst/internal/workload"
)

// opTrace timestamps one engine run from three sources: spans the bench
// opens around its own calls, Schedule calls seen by the scheduler wrapper,
// and the few engine events the narrow tracer listens to. A nil *opTrace
// records nothing, which is how the plain twin of a traced run executes.
type opTrace struct {
	epoch time.Time
	// mu orders marks: in sharded runs Schedule runs on the shard goroutines.
	mu    sync.Mutex
	marks []mark
	bench []span // spans the bench opened, in call order

	entered, returned time.Duration // engine entry and return
	lastDelivered     time.Duration
	decided           int // PlacementDecided events
	conflicts         int // PlacementConflict events
}

type markKind uint8

const (
	// markArrive is a batch's first JobArrived event.
	markArrive markKind = iota
	// markSched is one Schedule call, from entry (start) to exit (at).
	markSched
	// markCommit spans a run of consecutive PlacementDecided and
	// PlacementConflict events; at is the last of them.
	markCommit
)

type mark struct {
	kind      markKind
	at, start time.Duration
	batch     int  // markArrive
	conflict  bool // markCommit: a commit in the run lost

	// markSched: time and calls spent in the estimators the scheduler
	// consulted, and what it returned.
	est, pred            time.Duration
	estCalls, predCalls  int
	decisions, chunksOut int
}

func newOpTrace() *opTrace { return &opTrace{epoch: time.Now()} }

func (t *opTrace) now() time.Duration { return time.Since(t.epoch) }

// span opens a bench span and returns the function that closes it.
func (t *opTrace) span(name string) func() {
	if t == nil {
		return func() {}
	}
	start := t.now()
	return func() { t.bench = append(t.bench, span{Name: name, Start: start, End: t.now()}) }
}

// enter and exit bracket the call into the engine.
func (t *opTrace) enter() {
	if t != nil {
		t.entered = t.now()
	}
}

func (t *opTrace) exit() {
	if t != nil {
		t.returned = t.now()
	}
}

// sink returns t as a Tracer, or an untyped nil so trace.Multi skips it.
func (t *opTrace) sink() trace.Tracer {
	if t == nil {
		return nil
	}
	return t
}

// InterestMask narrows dispatch to the four event types the spans need, so
// the engine builds no other events for this tracer.
func (t *opTrace) InterestMask() trace.Mask {
	return trace.MaskOf(trace.JobArrived, trace.PlacementDecided, trace.PlacementConflict, trace.JobDelivered)
}

// Emit implements trace.Tracer. The streaming engine forwards every event
// type through its fingerprint gate, so Emit filters by type itself.
func (t *opTrace) Emit(ev trace.Event) {
	switch ev.Type {
	case trace.JobArrived, trace.PlacementDecided, trace.PlacementConflict:
	case trace.JobDelivered:
		t.lastDelivered = t.now()
		return
	default:
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.now()
	last := len(t.marks) - 1
	if ev.Type == trace.JobArrived {
		if last < 0 || t.marks[last].kind != markArrive || t.marks[last].batch != ev.Batch {
			t.marks = append(t.marks, mark{kind: markArrive, at: at, batch: ev.Batch})
		}
		return
	}
	lost := ev.Type == trace.PlacementConflict
	if lost {
		t.conflicts++
	} else {
		t.decided++
	}
	if last >= 0 && t.marks[last].kind == markCommit {
		t.marks[last].at = at
		t.marks[last].conflict = t.marks[last].conflict || lost
		return
	}
	t.marks = append(t.marks, mark{kind: markCommit, at: at, conflict: lost})
}

func (t *opTrace) addSched(m mark) {
	t.mu.Lock()
	m.at = t.now()
	t.marks = append(t.marks, m)
	t.mu.Unlock()
}

// timedScheduler times each Schedule call and the estimator calls made
// inside it. It wraps a copy of the State, never the engine's own: shards
// share one snapshot.
type timedScheduler struct {
	inner sched.Scheduler
	tr    *opTrace
}

// timedBoundsScheduler keeps sched.BoundsPublisher visible through the
// wrapper: the engine type-asserts it to arm SIBS's size-split uploader,
// so hiding it would silently change the run.
type timedBoundsScheduler struct {
	*timedScheduler
	bp sched.BoundsPublisher
}

func (s timedBoundsScheduler) Bounds() (sBound, mBound int64, ok bool) { return s.bp.Bounds() }

// timed wraps inner so its calls are recorded into tr.
func timed(inner sched.Scheduler, tr *opTrace) sched.Scheduler {
	ts := &timedScheduler{inner: inner, tr: tr}
	if bp, ok := inner.(sched.BoundsPublisher); ok {
		return timedBoundsScheduler{ts, bp}
	}
	return ts
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Schedule(batch []*job.Job, st *sched.State, alloc job.IDAllocator) []sched.Decision {
	m := mark{kind: markSched, start: s.tr.now()}
	cp := *st
	if f := cp.EstimateJob; f != nil {
		cp.EstimateJob = func(j *job.Job) float64 {
			t0 := time.Now()
			v := f(j)
			m.est += time.Since(t0)
			m.estCalls++
			return v
		}
	}
	if f := cp.EstimateProc; f != nil {
		cp.EstimateProc = func(x job.Features) float64 {
			t0 := time.Now()
			v := f(x)
			m.est += time.Since(t0)
			m.estCalls++
			return v
		}
	}
	predict := func(f func(float64) float64) func(float64) float64 {
		if f == nil {
			return nil
		}
		return func(at float64) float64 {
			t0 := time.Now()
			v := f(at)
			m.pred += time.Since(t0)
			m.predCalls++
			return v
		}
	}
	cp.PredictUploadBW = predict(cp.PredictUploadBW)
	cp.PredictDownloadBW = predict(cp.PredictDownloadBW)
	ds := s.inner.Schedule(batch, &cp, alloc)
	m.decisions = len(ds)
	for _, d := range ds {
		if d.Job.IsChunk() {
			m.chunksOut++
		}
	}
	s.tr.addSched(m)
	return ds
}

// timedSource times each batch the arrival process synthesizes.
type timedSource struct {
	inner workload.Source
	tr    *opTrace
}

func (s timedSource) NextBatch(ids job.IDAllocator) (workload.Batch, bool) {
	defer s.tr.span("workload.generate")()
	return s.inner.NextBatch(ids)
}

// span is one interval of a run, in time since the run began. Parent
// indexes the run's span list; the root has -1.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Run    int           `json:"run"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// nested is time inside calls that are counted, not spanned: the
	// estimator calls of a sched.schedule span.
	nested time.Duration
}

// Span names. The root is one op's engine run as the bench called it,
// configuration and input generation included; its self time is bench
// glue no layer claims. The self time of engine.run, the call into the
// engine, is what its layer spans do not cover: event dispatch, bandwidth
// reallocation, cluster and SLA bookkeeping.
const (
	spanOp       = "op"
	spanRun      = "engine.run"
	spanConfig   = "api.config"
	spanGenerate = "workload.generate"
	spanSetup    = "engine.setup"
	spanState    = "engine.state"
	spanRound    = "shard.round"
	spanSchedule = "sched.schedule"
	spanCommit   = "engine.commit"
	spanFinish   = "engine.finish"
	spanHeap     = "bench.heap"
)

// build turns the marks into the run's span tree. Each batch becomes
//
//	engine.state  first JobArrived → first Schedule entry (snapshot, pending scan, deferred refit)
//	shard.round   first Schedule entry → last Schedule exit, one per placement round;
//	              its sched.schedule children overlap when shards run concurrently
//	engine.commit last Schedule exit → the round's last PlacementDecided/Conflict
//
// A round that follows a conflicted commit is a re-placement of the same
// batch; its state span starts at that commit. A batch with no jobs emits
// no JobArrived, so its snapshot time stays in engine.run.
func (t *opTrace) build() []span {
	spans := []span{{Name: spanOp, Parent: -1, End: t.returned}}
	add := func(name string, parent int, start, end time.Duration) int {
		spans = append(spans, span{Name: name, Parent: parent, Start: start, End: end})
		return len(spans) - 1
	}
	const run = 1
	add(spanRun, 0, t.entered, t.returned)
	first := t.returned
	if len(t.marks) > 0 {
		first = t.marks[0].at
		if t.marks[0].kind == markSched {
			first = t.marks[0].start
		}
	}
	add(spanSetup, run, t.entered, first)
	anchor, roundEnd := time.Duration(-1), time.Duration(0)
	for i := 0; i < len(t.marks); {
		m := t.marks[i]
		switch m.kind {
		case markArrive:
			anchor = m.at
			i++
		case markCommit:
			add(spanCommit, run, roundEnd, m.at)
			anchor = -1
			if m.conflict {
				anchor = m.at
			}
			i++
		case markSched:
			j, start, end := i, m.start, m.at
			for ; j < len(t.marks) && t.marks[j].kind == markSched; j++ {
				start, end = min(start, t.marks[j].start), max(end, t.marks[j].at)
			}
			if anchor >= 0 {
				add(spanState, run, anchor, start)
				anchor = -1
			}
			round := add(spanRound, run, start, end)
			for k := i; k < j; k++ {
				s := add(spanSchedule, round, t.marks[k].start, t.marks[k].at)
				spans[s].nested = t.marks[k].est + t.marks[k].pred
			}
			roundEnd, i = end, j
		}
	}
	if t.lastDelivered > 0 {
		add(spanFinish, run, t.lastDelivered, t.returned)
	}
	// Bench spans nest in the innermost span that encloses them, such as
	// the first NextBatch of a streaming run, which falls in its setup.
	top := len(spans)
	for _, b := range t.bench {
		parent := 0
		if t.entered <= b.Start && b.End <= t.returned {
			parent = run
			for i := run + 1; i < top; i++ {
				if spans[i].Parent == run && spans[i].Start <= b.Start && b.End <= spans[i].End {
					parent = i
					break
				}
			}
		}
		add(b.Name, parent, b.Start, b.End)
	}
	return spans
}

// selfTimes returns each span's duration minus the union of its children's
// intervals and its nested time.
func selfTimes(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(children[i]) - s.nested
	}
	return self
}

// covered returns the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	var total, end time.Duration
	for i, s := range spans {
		if i == 0 || s.Start > end {
			total += s.End - s.Start
			end = s.End
		} else if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

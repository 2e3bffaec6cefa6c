package netsim

import (
	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
)

// QueueItem is one payload waiting to traverse a link.
type QueueItem struct {
	Bytes int64
	Meta  any // typically the *job.Job being moved
	// OnDone fires when the payload fully arrives; achievedBW is the mean
	// bandwidth over the transfer.
	OnDone func(at float64, item *QueueItem, achievedBW float64)

	EnqueuedAt float64
}

// Queue is a FIFO transfer queue feeding a Link: one payload is in flight
// at a time (a large upload blocks everything behind it — the pathology
// that motivates size-interval splitting). Thread counts come from the
// tuner when present.
type Queue struct {
	Name string

	eng   *sim.Engine
	link  *Link
	tuner *Tuner

	fixedThreads int
	items        []*QueueItem
	current      *QueueItem
	currentTr    *Transfer

	// OnIdle, when set, fires after the queue drains completely. The
	// size-interval coordinator uses it to pull work up from lower queues.
	OnIdle func(q *Queue)

	// OnMeasure, when set, receives the path-bandwidth estimate of each
	// completed transfer (achieved rate scaled by mean concurrency) — the
	// signal the network predictor learns from.
	OnMeasure func(at, pathBW float64)

	// OnStall fires when the in-flight transfer freezes; OnAbort fires when
	// the sender gives up on it after the stall timeout. An aborted item's
	// OnDone never runs — the caller owns recovery. Both are optional.
	OnStall func(at float64, item *QueueItem)
	OnAbort func(at float64, item *QueueItem)

	stallModel StallModel
	stallRNG   *stats.RNG
	stallTm    sim.Timer
	abortTm    sim.Timer

	doneCb func(at float64, tr *Transfer) // prebound completion callback
}

// NewQueue creates a queue on link. If tuner is nil, transfers use
// fixedThreads (minimum 1).
func NewQueue(eng *sim.Engine, name string, link *Link, tuner *Tuner, fixedThreads int) *Queue {
	if fixedThreads < 1 {
		fixedThreads = 1
	}
	q := &Queue{Name: name, eng: eng, link: link, tuner: tuner, fixedThreads: fixedThreads}
	q.doneCb = q.transferDone
	return q
}

// Enqueue appends an item and starts it immediately if the queue is idle.
func (q *Queue) Enqueue(it *QueueItem) {
	if it.Bytes <= 0 {
		panic("netsim: queue item must have positive size")
	}
	it.EnqueuedAt = q.eng.Now()
	q.items = append(q.items, it)
	q.startNext()
}

func (q *Queue) threads() int {
	if q.tuner != nil {
		return q.tuner.Threads()
	}
	return q.fixedThreads
}

func (q *Queue) startNext() {
	if q.current != nil || len(q.items) == 0 {
		return
	}
	it := q.items[0]
	q.items = q.items[1:]
	q.current = it
	q.currentTr = q.link.Start(q.Name, it.Bytes, q.threads(), q.doneCb)
	if q.stallRNG != nil {
		// One draw per transfer: exponential time-to-stall. The timer is
		// cancelled if the transfer completes first.
		q.stallTm = q.eng.TimerAfter(q.stallRNG.Exponential(q.stallModel.MeanTimeBetween), q.stallFired, it)
	}
}

// transferDone is the prebound completion callback shared by every transfer
// the queue starts. Using one method value instead of a per-transfer closure
// keeps steady-state queue turnover allocation-free. The in-flight item is
// always q.current when the link reports completion: abortFired removes a
// killed transfer from the link before clearing q.current, so a stale
// onDone can never fire, and StealHead never touches the in-flight item.
func (q *Queue) transferDone(at float64, tr *Transfer) {
	it := q.current
	q.cancelStallTimers()
	q.current = nil
	q.currentTr = nil
	bw := tr.AchievedBW(at)
	if q.tuner != nil {
		q.tuner.Observe(at, bw)
	}
	if q.OnMeasure != nil {
		q.OnMeasure(at, tr.PathBW(at))
	}
	if it.OnDone != nil {
		it.OnDone(at, it, bw)
	}
	q.startNext()
	if q.current == nil && len(q.items) == 0 && q.OnIdle != nil {
		q.OnIdle(q)
	}
}

// EnableStalls arms a stall model on this queue. rng must be dedicated to
// this queue for reproducibility. Panics on an invalid model (configuration
// error, like NewLink's outage handling).
func (q *Queue) EnableStalls(model StallModel, rng *stats.RNG) {
	if err := model.Validate(); err != nil {
		panic(err)
	}
	if !model.Enabled() {
		return
	}
	q.stallModel, q.stallRNG = model, rng
}

func (q *Queue) cancelStallTimers() {
	if q.stallTm.Active() {
		q.eng.CancelTimer(q.stallTm)
		q.stallTm = sim.Timer{}
	}
	if q.abortTm.Active() {
		q.eng.CancelTimer(q.abortTm)
		q.abortTm = sim.Timer{}
	}
}

// stallFired freezes the in-flight transfer and starts the abort countdown.
func (q *Queue) stallFired(at float64, arg any) {
	q.stallTm = sim.Timer{}
	it := arg.(*QueueItem)
	if q.current != it || q.currentTr == nil {
		return
	}
	q.link.Stall(q.currentTr)
	// Stall advances the link first; a transfer within epsilon of done
	// completes inside that reallocation instead of stalling.
	if q.current != it {
		return
	}
	if q.OnStall != nil {
		q.OnStall(at, it)
	}
	q.abortTm = q.eng.TimerAfter(q.stallModel.Timeout, q.abortFired, it)
}

// abortFired kills the stalled transfer: the item's OnDone never runs, the
// caller recovers the job through OnAbort, and the queue moves on.
func (q *Queue) abortFired(at float64, arg any) {
	q.abortTm = sim.Timer{}
	it := arg.(*QueueItem)
	if q.current != it || q.currentTr == nil {
		return
	}
	tr := q.currentTr
	q.current = nil
	q.currentTr = nil
	q.link.Abort(tr)
	if q.OnAbort != nil {
		q.OnAbort(at, it)
	}
	q.startNext()
	if q.current == nil && len(q.items) == 0 && q.OnIdle != nil {
		q.OnIdle(q)
	}
}

// Busy reports whether a transfer is in flight.
func (q *Queue) Busy() bool { return q.current != nil }

// QueuedItems returns the number of waiting (not in-flight) items.
func (q *Queue) QueuedItems() int { return len(q.items) }

// Backlog returns the bytes ahead of a new arrival: everything queued plus
// what remains of the in-flight transfer. This is locally observable state
// (the sender knows its own queue), so schedulers may use it in estimates.
func (q *Queue) Backlog() float64 {
	var b float64
	for _, it := range q.items {
		b += float64(it.Bytes)
	}
	if q.currentTr != nil {
		b += q.currentTr.Remaining()
	}
	return b
}

// StealHead removes and returns the oldest waiting item, or nil when none
// is waiting. The in-flight item is never stolen.
func (q *Queue) StealHead() *QueueItem {
	if len(q.items) == 0 {
		return nil
	}
	it := q.items[0]
	q.items = q.items[1:]
	return it
}

// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock (float64 seconds from simulation
// start) and a priority queue of scheduled events. Events that share the
// same timestamp fire in the order they were scheduled, which makes runs
// fully reproducible: the same inputs always produce the same trajectory.
//
// The engine is intentionally single-threaded; parallelism in experiments
// comes from running independent replications (one engine per seed) on
// separate goroutines, never from sharing one engine across goroutines.
//
// # Performance model
//
// Every event is scheduled with a typed Callback plus an opaque argument
// (ScheduleCall/CallAfter, or ScheduleTimer/TimerAfter when it may need
// cancelling). Event nodes come from a free list and return to it the
// moment they fire or are cancelled, so steady-state scheduling allocates
// nothing. Cancellation goes through the Timer value handle, whose
// generation number makes stale cancels of a recycled node safe no-ops.
//
// The priority queue is a hand-rolled 4-ary heap over (time, seq); it
// avoids container/heap's interface calls and interface{} boxing on every
// push/pop, and the flatter tree halves the levels touched by the
// pop-heavy drive loop (four children share a cache line of event
// pointers). Because events are totally ordered by the unique (at, seq)
// key, the heap arity cannot affect the firing order — any correct priority
// queue yields the same trajectory — and reference mode (NewReference)
// keeps a linear scan instead.
//
// Engines are reusable: Reset returns a drained or mid-run engine to the
// zero-time state while keeping the event free list and queue capacity, so
// a pooled engine can drive many runs without reallocating.
package sim

import (
	"fmt"
	"math"
)

// Callback is the typed fast-path event function: it receives the firing
// time and the argument registered at scheduling. Using a prebound Callback
// plus an argument instead of a fresh closure keeps hot-path scheduling
// allocation-free.
type Callback func(now float64, arg any)

// event is one pooled queue node: a callback and its argument, due at
// virtual time at. Callers reach a node only through a Timer.
type event struct {
	at       float64
	seq      uint64
	cb       Callback
	arg      any
	index    int32 // heap index; -1 when not in the heap
	gen      uint32
	canceled bool
}

// Timer is a cancellable handle to a pooled event. The zero Timer is inert.
// The generation number detects recycled nodes, so keeping a Timer past its
// firing and cancelling it later is always safe.
type Timer struct {
	ev  *event
	gen uint32
}

// Active reports whether the timer still refers to a pending event.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.canceled && t.ev.index >= 0
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now     float64
	seq     uint64
	events  []*event // 4-ary heap on (at, seq); unordered in reference mode
	free    []*event // recycled nodes; unused in reference mode
	stopped bool
	fired   uint64
	// reference selects the naive structures (linear-scan min, fresh
	// allocation per event) — see NewReference.
	reference bool
}

// NewEngine returns an engine with the clock at time zero and no pending
// events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Reset returns the engine to its initial state — clock at zero, no pending
// events, counters cleared — while retaining the event free list and the
// queue's backing array. Pending events are recycled, so their Timers
// become no-ops. A Reset engine is indistinguishable from a fresh
// NewEngine/NewReference apart from the retained capacity, which is what
// makes arena reuse bit-exact.
func (e *Engine) Reset() {
	for _, ev := range e.events {
		e.put(ev)
	}
	clear(e.events)
	e.events = e.events[:0]
	e.now = 0
	e.seq = 0
	e.fired = 0
	e.stopped = false
}

// Pending returns the number of events waiting to fire (including events
// that were cancelled but not yet drained from the queue).
func (e *Engine) Pending() int { return len(e.events) }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// checkTime panics for scheduling in the past or at non-finite times: both
// always indicate a model bug, and silently clamping would mask it.
func (e *Engine) checkTime(at float64) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %.9f before now %.9f", at, e.now))
	}
	if math.IsNaN(at) || math.IsInf(at, 0) {
		panic(fmt.Sprintf("sim: schedule at non-finite time %v", at))
	}
}

// ScheduleCall registers a typed callback at absolute time at. Scheduling
// in the past (at < Now) or at a non-finite time panics. The event node
// comes from the free list and is recycled when it fires, so this path
// allocates nothing in steady state. The event cannot be cancelled; use
// ScheduleTimer when cancellation is needed.
func (e *Engine) ScheduleCall(at float64, cb Callback, arg any) {
	e.checkTime(at)
	ev := e.get()
	ev.at, ev.seq, ev.cb, ev.arg = at, e.seq, cb, arg
	e.seq++
	e.push(ev)
}

// CallAfter registers a typed callback d seconds from now (pooled,
// non-cancellable). Negative delays panic.
func (e *Engine) CallAfter(d float64, cb Callback, arg any) {
	e.ScheduleCall(e.now+d, cb, arg)
}

// ScheduleTimer registers a typed callback at absolute time at and returns
// a Timer handle for cancellation. The node is pooled; the Timer's
// generation makes a stale CancelTimer after firing a safe no-op.
func (e *Engine) ScheduleTimer(at float64, cb Callback, arg any) Timer {
	e.checkTime(at)
	ev := e.get()
	ev.at, ev.seq, ev.cb, ev.arg = at, e.seq, cb, arg
	e.seq++
	e.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// TimerAfter registers a typed callback d seconds from now and returns its
// Timer.
func (e *Engine) TimerAfter(d float64, cb Callback, arg any) Timer {
	return e.ScheduleTimer(e.now+d, cb, arg)
}

// CancelTimer cancels the timer's event if it is still pending. Cancelling
// a zero Timer, an already-fired timer, or one whose node was recycled is a
// no-op.
func (e *Engine) CancelTimer(t Timer) {
	if !t.Active() {
		return
	}
	ev := t.ev
	ev.canceled = true
	e.remove(int(ev.index))
	e.put(ev)
}

// Step fires the next pending event, advancing the clock to its timestamp.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.events) > 0 {
		ev := e.pop()
		if ev.canceled {
			e.put(ev)
			continue
		}
		e.now = ev.at
		e.fired++
		// Recycle before invoking so the callback can reuse the node for
		// whatever it schedules next.
		cb, arg := ev.cb, ev.arg
		e.put(ev)
		cb(e.now, arg)
		return true
	}
	return false
}

// Run fires events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= t and then advances the clock to
// exactly t (even if no event fired at t). Events scheduled beyond t remain
// queued.
func (e *Engine) RunUntil(t float64) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 {
		next := e.peek()
		if next == nil {
			break
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Stop makes the current Run or RunUntil return after the in-flight event
// callback completes.
func (e *Engine) Stop() { e.stopped = true }

// peek returns the earliest non-cancelled event without removing it.
func (e *Engine) peek() *event {
	for len(e.events) > 0 {
		ev := e.events[0]
		if e.reference {
			ev = e.events[e.minIndex()]
		}
		if !ev.canceled {
			return ev
		}
		e.pop() // removes exactly ev: the minimum by (at, seq) in both modes
		e.put(ev)
	}
	return nil
}

// NextEventTime returns the timestamp of the earliest pending event and true,
// or 0 and false when the queue is empty.
func (e *Engine) NextEventTime() (float64, bool) {
	ev := e.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// --- free list ---

// get returns a cleared node. Reference mode always allocates fresh.
func (e *Engine) get() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{index: -1}
}

// put recycles a node, bumping its generation so stale Timer handles cannot
// touch its next incarnation. Reference mode only retires the node
// (generation bump, field clear) without returning it to the free list.
func (e *Engine) put(ev *event) {
	ev.gen++
	ev.cb, ev.arg = nil, nil
	ev.canceled = false
	ev.index = -1
	if e.reference {
		return
	}
	e.free = append(e.free, ev)
}

// --- 4-ary heap on (at, seq) ---

// heapArity is the fan-out of the priority queue. Four children per node
// halves the tree depth of a binary heap and keeps each sibling group in
// one cache line of pointers, which measurably helps the pop-heavy drive
// loop. The (at, seq) total order makes the firing sequence independent of
// arity, so this is purely a layout choice.
const heapArity = 4

func (e *Engine) less(i, j int) bool {
	a, b := e.events[i], e.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) swap(i, j int) {
	e.events[i], e.events[j] = e.events[j], e.events[i]
	e.events[i].index = int32(i)
	e.events[j].index = int32(j)
}

func (e *Engine) push(ev *event) {
	ev.index = int32(len(e.events))
	e.events = append(e.events, ev)
	if e.reference {
		return
	}
	e.up(len(e.events) - 1)
}

func (e *Engine) pop() *event {
	if e.reference {
		i := e.minIndex()
		ev := e.events[i]
		n := len(e.events) - 1
		e.swap(i, n)
		e.events[n] = nil
		e.events = e.events[:n]
		ev.index = -1
		return ev
	}
	ev := e.events[0]
	n := len(e.events) - 1
	e.swap(0, n)
	e.events[n] = nil
	e.events = e.events[:n]
	if n > 0 {
		e.down(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the event at position i (heap position, or slice position
// in reference mode).
func (e *Engine) remove(i int) {
	n := len(e.events) - 1
	ev := e.events[i]
	if i != n {
		e.swap(i, n)
		e.events[n] = nil
		e.events = e.events[:n]
		if !e.reference && !e.down(i) {
			e.up(i)
		}
	} else {
		e.events[n] = nil
		e.events = e.events[:n]
	}
	ev.index = -1
}

func (e *Engine) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.less(i, parent) {
			break
		}
		e.swap(i, parent)
		i = parent
	}
}

// down sifts i toward the leaves; it reports whether i moved.
func (e *Engine) down(i int) bool {
	start := i
	n := len(e.events)
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		least := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(c, least) {
				least = c
			}
		}
		if !e.less(least, i) {
			break
		}
		e.swap(i, least)
		i = least
	}
	return i > start
}

// Package cluster models the compute side of both clouds: a set of
// standard-speed machines pulling tasks from a FCFS queue, with busy-time
// accounting for the utilization SLA. Each machine records when it joined
// the fleet and when it retired; those records are the one rental ledger —
// machine-seconds, rented utilization and the external cloud's rental bill
// all read them.
package cluster

import (
	"fmt"
	"math/bits"

	"cloudburst/internal/job"
	"cloudburst/internal/sim"
)

// Machine is one execution slot (a printer controller VM in the IC, an EMR
// instance in the EC).
type Machine struct {
	ID int

	busyTime    float64 // accumulated busy seconds (completed work)
	runningFrom float64 // start of the current task, valid when running
	running     *Task

	// Rental record: the machine joined the fleet at addedAt and left it
	// at retiredAt (-1 while active).
	addedAt   float64
	retiredAt float64

	// Fault state. failed: down (crashed or revoked), takes no work.
	// doomed: revocation warning received, takes no new work while the
	// current task races the kill deadline.
	failed bool
	doomed bool

	// pos is the machine's index in the cluster's active slice, maintained
	// on append and retire so the idle bitset can be updated in O(1).
	pos int
}

// Busy reports whether the machine is executing a task.
func (m *Machine) Busy() bool { return m.running != nil }

// AddedAt returns when the machine joined the fleet — the start of its
// rental.
func (m *Machine) AddedAt() float64 { return m.addedAt }

// BusyTime returns the seconds spent executing up to virtual time now.
func (m *Machine) BusyTime(now float64) float64 {
	b := m.busyTime
	if m.running != nil {
		b += now - m.runningFrom
	}
	return b
}

// Task is one unit of compute work: StdSeconds of standard-machine time,
// usually carrying the job it processes.
type Task struct {
	Job        *job.Job
	StdSeconds float64
	// OnDone fires at completion with the finishing machine.
	OnDone func(at float64, t *Task, m *Machine)

	EnqueuedAt float64
	StartedAt  float64

	machine *Machine
	done    bool
	aborted bool // machine failed mid-task; the pending completion is void
}

// RemainingStdSeconds returns the standard-machine work left at time now:
// full work while queued, the unexecuted fraction while running, zero when
// done. This is locally observable state (the cluster knows its own
// progress), so schedulers may use it for backlog estimates.
func (t *Task) RemainingStdSeconds(now float64) float64 {
	switch {
	case t.done:
		return 0
	case t.machine == nil:
		return t.StdSeconds
	default:
		executed := now - t.StartedAt
		if executed >= t.StdSeconds {
			return 0
		}
		return t.StdSeconds - executed
	}
}

// Cluster is a FCFS pool of machines.
type Cluster struct {
	Name string

	eng      *sim.Engine
	machines []*Machine
	retired  []*Machine
	queue    []*Task

	// idle is a dense bitset over slice positions: bit p set ⇔
	// machines[p].running == nil. With thousands of machines it turns the
	// per-dispatch free-machine scan into a find-first-set over words while
	// preserving the lowest-position-first selection order exactly.
	// busyCount counts running tasks for O(1) Idle/RunningTasks.
	idle      []uint64
	busyCount int

	createdAt    float64
	peakMachines int
	revoked      int          // machines permanently lost to fault injection
	doneCb       sim.Callback // prebound task-completion callback
	// OnTaskStart/OnTaskEnd fire for every task the cluster starts or
	// finishes. The tracing subsystem hooks them; both are optional.
	OnTaskStart func(at float64, t *Task, m *Machine)
	OnTaskEnd   func(at float64, t *Task, m *Machine)
}

// New creates a cluster of n standard-speed machines, IDs 0..n-1.
func New(eng *sim.Engine, name string, n int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("cluster %q needs at least one machine", name))
	}
	c := &Cluster{Name: name, eng: eng, createdAt: eng.Now()}
	c.doneCb = c.taskDone
	for i := 0; i < n; i++ {
		c.machines = append(c.machines, &Machine{ID: i, addedAt: eng.Now(), retiredAt: -1, pos: i})
		c.markIdle(i)
	}
	c.peakMachines = len(c.machines)
	return c
}

// markIdle sets bit pos, growing the bitset as the fleet does.
func (c *Cluster) markIdle(pos int) {
	w := pos >> 6
	for w >= len(c.idle) {
		c.idle = append(c.idle, 0)
	}
	c.idle[w] |= 1 << (uint(pos) & 63)
}

func (c *Cluster) markBusy(pos int) {
	c.idle[pos>>6] &^= 1 << (uint(pos) & 63)
}

// rebuildIdle recomputes positions and the bitset after a retire splice.
// Retirement is rare relative to dispatch, so the O(n) rebuild is cheap.
func (c *Cluster) rebuildIdle() {
	for i := range c.idle {
		c.idle[i] = 0
	}
	for i, m := range c.machines {
		m.pos = i
		if m.running == nil {
			c.markIdle(i)
		}
	}
}

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.machines) }

// ActiveSize returns the number of machines able to accept work: present,
// not failed and not under a revocation warning.
func (c *Cluster) ActiveSize() int {
	n := 0
	for _, m := range c.machines {
		if !m.failed && !m.doomed {
			n++
		}
	}
	return n
}

// Revoked returns the number of machines permanently removed by fault
// injection.
func (c *Cluster) Revoked() int { return c.revoked }

// Machines returns the active machines in ID order (shared; do not
// mutate): the machines whose rentals are open.
func (c *Cluster) Machines() []*Machine { return c.machines }

// Submit queues a task; it starts immediately if a machine is free.
func (c *Cluster) Submit(t *Task) {
	if t.StdSeconds <= 0 {
		panic(fmt.Sprintf("cluster %q: task must carry positive work, got %v", c.Name, t.StdSeconds))
	}
	t.EnqueuedAt = c.eng.Now()
	c.queue = append(c.queue, t)
	c.dispatch()
}

// dispatch assigns queued tasks to free machines in FCFS order.
func (c *Cluster) dispatch() {
	for len(c.queue) > 0 {
		m := c.freeMachine()
		if m == nil {
			return
		}
		t := c.queue[0]
		c.queue = c.queue[1:]
		c.start(m, t)
	}
}

func (c *Cluster) freeMachine() *Machine {
	// Find-first-set over the idle bitset preserves the historical
	// lowest-position-first order; flags are re-checked at scan time because
	// fault injection flips failed/doomed without touching the bitset.
	for w, word := range c.idle {
		for word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			if p >= len(c.machines) {
				return nil
			}
			m := c.machines[p]
			if !m.failed && !m.doomed {
				return m
			}
			word &= word - 1
		}
	}
	return nil
}

// IdleActiveIDs appends the IDs of machines able to start work right now
// (idle, not failed/doomed) in dispatch order to buf and returns
// it. Shard coordinators snapshot this as the claimable slot list.
func (c *Cluster) IdleActiveIDs(buf []int) []int {
	for w, word := range c.idle {
		for word != 0 {
			p := w<<6 + bits.TrailingZeros64(word)
			if p >= len(c.machines) {
				return buf
			}
			m := c.machines[p]
			if !m.failed && !m.doomed {
				buf = append(buf, m.ID)
			}
			word &= word - 1
		}
	}
	return buf
}

func (c *Cluster) start(m *Machine, t *Task) {
	now := c.eng.Now()
	t.machine = m
	t.StartedAt = now
	m.running = t
	m.runningFrom = now
	c.markBusy(m.pos)
	c.busyCount++
	if c.OnTaskStart != nil {
		c.OnTaskStart(now, t, m)
	}
	c.eng.CallAfter(t.StdSeconds, c.doneCb, t)
}

// taskDone is the pooled completion callback for every task on the cluster;
// the task records its machine, so no per-task closure is needed.
func (c *Cluster) taskDone(now float64, arg any) {
	t := arg.(*Task)
	if t.aborted {
		// The machine failed mid-task; CallAfter events cannot be cancelled,
		// so the stale completion fires here and is dropped.
		return
	}
	m := t.machine
	t.done = true
	m.running = nil
	m.busyTime += now - m.runningFrom
	c.markIdle(m.pos)
	c.busyCount--
	if c.OnTaskEnd != nil {
		c.OnTaskEnd(now, t, m)
	}
	if t.OnDone != nil {
		t.OnDone(now, t, m)
	}
	c.dispatch()
}

// Idle reports whether no task is running or queued.
func (c *Cluster) Idle() bool {
	return len(c.queue) == 0 && c.busyCount == 0
}

// QueueLength returns the number of queued (not yet running) tasks.
func (c *Cluster) QueueLength() int { return len(c.queue) }

// RunningTasks returns the number of tasks currently executing.
func (c *Cluster) RunningTasks() int { return c.busyCount }

// BacklogStdSeconds returns the standard-machine work queued plus the
// remaining work of running tasks at time now.
func (c *Cluster) BacklogStdSeconds() float64 {
	now := c.eng.Now()
	var b float64
	for _, t := range c.queue {
		b += t.StdSeconds
	}
	for _, m := range c.machines {
		if m.running != nil {
			b += m.running.RemainingStdSeconds(now)
		}
	}
	return b
}

// Withdraw removes a queued task so it can be scheduled elsewhere (the
// rescheduling strategies in Sec. IV-D). Running or finished tasks cannot
// be withdrawn; it returns false for them and for unknown tasks.
func (c *Cluster) Withdraw(t *Task) bool {
	for i, q := range c.queue {
		if q == t {
			c.queue = append(c.queue[:i], c.queue[i+1:]...)
			return true
		}
	}
	return false
}

// QueuedTasks returns a snapshot of the queued tasks in FCFS order.
func (c *Cluster) QueuedTasks() []*Task {
	return append([]*Task(nil), c.queue...)
}

// UtilizationAt returns the mean machine utilization from cluster creation
// to end — equations (8)/(9): total busy time divided by |M|·elapsed. With
// end at the last completion, elapsed is the makespan and this is exactly
// the paper's u_M(J).
func (c *Cluster) UtilizationAt(end float64) float64 {
	el := end - c.createdAt
	if el <= 0 {
		return 0
	}
	var busy float64
	for _, m := range c.machines {
		busy += m.BusyTime(end)
	}
	return busy / (el * float64(len(c.machines)))
}

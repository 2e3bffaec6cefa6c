package cluster

import (
	"fmt"

	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
)

// Machine-level fault injection: spot-style EC revocations (permanent, with
// an optional advance warning) and IC crash/restart cycles, driven by an
// exponential MTBF/MTTR model. All draws come from a dedicated RNG so fault
// schedules are deterministic and independent of the workload and network
// streams.

// FaultModel describes the failure behaviour of one cluster.
type FaultModel struct {
	// MTBF is the mean time between failures across the whole cluster in
	// seconds; <= 0 disables injection.
	MTBF float64
	// MTTR is the mean time to repair in seconds. <= 0 means failures are
	// permanent — the machine is revoked and never returns (spot semantics).
	MTTR float64
	// WarnLead is the advance warning before a kill, in seconds (spot
	// instances typically get ~120 s). A warned machine accepts no new work;
	// its current task races the deadline. 0 kills immediately.
	WarnLead float64
}

// Enabled reports whether the model injects any faults.
func (f FaultModel) Enabled() bool { return f.MTBF > 0 }

// Permanent reports whether failures under this model are revocations.
func (f FaultModel) Permanent() bool { return f.MTTR <= 0 }

// Validate rejects physically meaningless parameters.
func (f FaultModel) Validate() error {
	if f.MTBF < 0 {
		return fmt.Errorf("fault MTBF %v must not be negative", f.MTBF)
	}
	if f.MTTR < 0 {
		return fmt.Errorf("fault MTTR %v must not be negative", f.MTTR)
	}
	if f.WarnLead < 0 {
		return fmt.Errorf("fault WarnLead %v must not be negative", f.WarnLead)
	}
	return nil
}

// FailMachine takes the machine down now. The running task, if any, is
// aborted and returned so the caller can recover its job; the machine keeps
// the busy time it accumulated (the work really happened — the auditor sees
// a matching synthetic ComputeEnd). Permanent failures retire the machine,
// ending its rental span.
func (c *Cluster) FailMachine(m *Machine, permanent bool) *Task {
	now := c.eng.Now()
	var aborted *Task
	if t := m.running; t != nil {
		aborted = t
		t.aborted = true
		t.machine = nil
		m.running = nil
		m.busyTime += now - m.runningFrom
		c.markIdle(m.pos)
		c.busyCount--
	}
	m.failed = true
	if permanent {
		c.revoked++
		c.retire(m)
	}
	return aborted
}

// RestoreMachine brings a crashed (non-permanent) machine back and lets it
// pull queued work immediately.
func (c *Cluster) RestoreMachine(m *Machine) {
	if !m.failed {
		return
	}
	m.failed = false
	m.doomed = false
	c.dispatch()
}

// FaultInjector drives a FaultModel against one cluster on the simulation
// clock. Hooks fire synchronously from the event loop.
type FaultInjector struct {
	eng   *sim.Engine
	c     *Cluster
	model FaultModel
	rng   *stats.RNG

	// OnFail fires when a machine goes down; aborted is the task killed
	// mid-execution (nil if the machine was idle).
	OnFail func(at float64, m *Machine, aborted *Task, permanent bool)
	// OnRestore fires when a crashed machine returns.
	OnRestore func(at float64, m *Machine)

	failures int
	stopped  bool // a permanent model emptied the fleet; see MachineJoined
}

// NewFaultInjector arms the model against the cluster. A disabled model
// returns nil.
func NewFaultInjector(eng *sim.Engine, c *Cluster, model FaultModel, rng *stats.RNG) *FaultInjector {
	if !model.Enabled() {
		return nil
	}
	fi := &FaultInjector{eng: eng, c: c, model: model, rng: rng}
	fi.scheduleNext()
	return fi
}

// Failures returns the number of machine failures injected so far.
func (fi *FaultInjector) Failures() int { return fi.failures }

func (fi *FaultInjector) scheduleNext() {
	fi.eng.CallAfter(fi.rng.Exponential(fi.model.MTBF), fi.tick, nil)
}

func (fi *FaultInjector) tick(now float64, _ any) {
	if victim := fi.pick(); victim != nil {
		if fi.model.WarnLead > 0 {
			victim.doomed = true
			fi.eng.CallAfter(fi.model.WarnLead, fi.kill, victim)
		} else {
			fi.fail(now, victim)
		}
	}
	// Once a permanent model has consumed the whole fleet there is nothing
	// left to kill and no repair will ever refill it; stop ticking until a
	// machine joins.
	if fi.model.Permanent() && len(fi.c.machines) == 0 {
		fi.stopped = true
		return
	}
	fi.scheduleNext()
}

// MachineJoined tells the injector that a machine was added to its
// cluster. An injector that stopped on an empty fleet resumes ticking, so
// machines booted after the last revocation can be revoked too.
func (fi *FaultInjector) MachineJoined() {
	if fi.stopped {
		fi.stopped = false
		fi.scheduleNext()
	}
}

func (fi *FaultInjector) kill(now float64, arg any) {
	m := arg.(*Machine)
	if m.failed {
		return // already down through some other path
	}
	fi.fail(now, m)
}

func (fi *FaultInjector) fail(now float64, m *Machine) {
	permanent := fi.model.Permanent()
	aborted := fi.c.FailMachine(m, permanent)
	fi.failures++
	if fi.OnFail != nil {
		fi.OnFail(now, m, aborted, permanent)
	}
	if !permanent {
		fi.eng.CallAfter(fi.rng.Exponential(fi.model.MTTR), fi.restore, m)
	}
}

func (fi *FaultInjector) restore(now float64, arg any) {
	m := arg.(*Machine)
	fi.c.RestoreMachine(m)
	if fi.OnRestore != nil {
		fi.OnRestore(now, m)
	}
}

// pick selects a victim uniformly among machines that are up and not
// already marked for death. Returns nil when none qualify.
func (fi *FaultInjector) pick() *Machine {
	eligible := fi.c.machines[:0:0]
	for _, m := range fi.c.machines {
		if !m.failed && !m.doomed {
			eligible = append(eligible, m)
		}
	}
	if len(eligible) == 0 {
		return nil
	}
	return eligible[fi.rng.Intn(len(eligible))]
}

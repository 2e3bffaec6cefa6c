package cluster

// Elastic-cluster support: machines can be added (after a boot delay,
// handled by the caller) and idle machines retired at runtime, with
// rental-time accounting so scaling policies can weigh cost against SLA.
// This realizes the paper's future-work item — "the scaling (at EC) must
// be just enough to ensure saturation of the download bandwidth".

// AddMachine brings a new machine online immediately and dispatches queued
// work to it. It returns the machine.
func (c *Cluster) AddMachine() *Machine {
	m := &Machine{ID: c.nextID(), addedAt: c.eng.Now(), retiredAt: -1, pos: len(c.machines)}
	c.machines = append(c.machines, m)
	c.markIdle(m.pos)
	if len(c.machines) > c.peakMachines {
		c.peakMachines = len(c.machines)
	}
	c.dispatch()
	return m
}

func (c *Cluster) nextID() int {
	return len(c.machines) + len(c.retired)
}

// DrainIdleMachine retires the lowest-ID idle machine that is up, keeping
// at least min active, and returns it (nil when none was retired) so the
// caller can bill or trace the rental end.
func (c *Cluster) DrainIdleMachine(min int) *Machine {
	if len(c.machines) <= min {
		return nil
	}
	for _, m := range c.machines {
		if !m.Busy() && !m.failed && !m.doomed {
			c.retire(m)
			return m
		}
	}
	return nil
}

func (c *Cluster) retire(m *Machine) {
	for i, am := range c.machines {
		if am == m {
			c.machines = append(c.machines[:i], c.machines[i+1:]...)
			m.retiredAt = c.eng.Now()
			c.retired = append(c.retired, m)
			c.rebuildIdle()
			return
		}
	}
}

// MachineSeconds returns the total rented machine time up to end: for each
// machine ever active, the span from its activation to its retirement (or
// end). This is the cost basis for elastic fleets.
func (c *Cluster) MachineSeconds(end float64) float64 {
	var s float64
	for _, m := range c.machines {
		if end > m.addedAt {
			s += end - m.addedAt
		}
	}
	for _, m := range c.retired {
		stop := m.retiredAt
		if stop > end {
			stop = end
		}
		if stop > m.addedAt {
			s += stop - m.addedAt
		}
	}
	return s
}

// UtilizationRented returns busy time divided by rented machine time up to
// end — the utilization measure that stays meaningful when the fleet size
// changes mid-run.
func (c *Cluster) UtilizationRented(end float64) float64 {
	rented := c.MachineSeconds(end)
	if rented <= 0 {
		return 0
	}
	var busy float64
	for _, m := range c.machines {
		busy += m.BusyTime(end)
	}
	for _, m := range c.retired {
		busy += m.busyTime // retired machines are never mid-task
	}
	return busy / rented
}

// PeakMachines returns the largest number of simultaneously active
// machines seen so far (active plus any retired overlap is approximated by
// the current count high-water mark maintained on add).
func (c *Cluster) PeakMachines() int {
	if c.peakMachines < len(c.machines) {
		return len(c.machines)
	}
	return c.peakMachines
}

package engine

import (
	"cloudburst/internal/cluster"
	"cloudburst/internal/netsim"
	"cloudburst/internal/trace"
)

// Tracing glue: every hook here is installed only when the compiled
// dispatch mask (Engine.want) asks for the event types it emits, and every
// inline emission in the pipeline is guarded by a single mask test, so a
// run without tracing — or with only a narrow-interest sink listening —
// pays no event construction and no interface calls (the package trace
// performance contract).

// attachClusterTrace emits ComputeStart/ComputeEnd for every task the
// cluster runs.
func (e *Engine) attachClusterTrace(c *cluster.Cluster) {
	name := c.Name
	if e.wants(trace.ComputeStart) {
		c.OnTaskStart = func(at float64, t *cluster.Task, m *cluster.Machine) {
			e.tracer.Emit(trace.Event{
				Type: trace.ComputeStart, T: at,
				Cluster: name, Machine: m.ID, JobID: taskJobID(t),
			})
		}
	}
	if e.wants(trace.ComputeEnd) {
		c.OnTaskEnd = func(at float64, t *cluster.Task, m *cluster.Machine) {
			e.tracer.Emit(trace.Event{
				Type: trace.ComputeEnd, T: at,
				Cluster: name, Machine: m.ID, JobID: taskJobID(t),
			})
		}
	}
}

func taskJobID(t *cluster.Task) int {
	if t.Job != nil {
		return t.Job.ID
	}
	return -1
}

// outageTrace returns a LinkConfig.OnOutage callback emitting
// OutageStart/OutageEnd for the named link, or nil when neither type is
// wanted.
func (e *Engine) outageTrace(link string) func(at float64, active bool) {
	if !e.wants(trace.OutageStart) && !e.wants(trace.OutageEnd) {
		return nil
	}
	return func(at float64, active bool) {
		typ := trace.OutageEnd
		if active {
			typ = trace.OutageStart
		}
		if e.wants(typ) {
			e.tracer.Emit(trace.Event{Type: typ, T: at, Link: link})
		}
	}
}

// attachProbeTrace emits ProbeCompleted with the measured path bandwidth.
func (e *Engine) attachProbeTrace(p *netsim.Prober, link string) {
	if !e.wants(trace.ProbeCompleted) || p == nil {
		return
	}
	p.OnProbe = func(at, pathBW float64) {
		e.tracer.Emit(trace.Event{Type: trace.ProbeCompleted, T: at, Link: link, BW: pathBW})
	}
}

package engine

import (
	"cloudburst/internal/cost"
	"cloudburst/internal/trace"
)

// Cost metering hooks. The meter exists only when Config.Cost is set; all
// hooks below are no-ops otherwise, so unpriced runs stay bit-identical.
// Rental lifecycle: startMetering puts the initial fleets on the clock,
// autoscale boots/drains and fatal revocations move machines on and off,
// and resultFrom closes whatever is still open at run end (finite runs
// only — a suspended service's continuation still owns its rentals).

// startMetering opens the rental clock on every machine of each site's
// initial fleet (machine IDs 0..n-1 by construction of cluster.Uniform).
// The primary EC is billed at the meter's rate; every other site at its
// own on-demand override, else the on-demand rate — remote sites are never
// spot, the revocation fault model applies only to the primary EC. Called
// right after emitRunConfigured so RentalStarted events follow the stream
// opener.
func (e *Engine) startMetering() {
	if e.meter == nil {
		return
	}
	now := e.eng.Now()
	for k, s := range e.sites {
		rate := e.meter.Rate()
		if k > 0 {
			rate = e.cfg.Cost.OnDemandRate
			if r := e.cfg.RemoteSites[k-1].OnDemandRate; r > 0 {
				rate = r
			}
		}
		for id := 0; id < s.cluster.Size(); id++ {
			e.rentalStart(s.cluster.Name, id, now, rate)
		}
	}
}

// rentalStart puts one machine on the clock and emits RentalStarted.
func (e *Engine) rentalStart(cluster string, machine int, t, rate float64) {
	e.meter.Start(cluster, machine, t, rate)
	if e.wants(trace.RentalStarted) {
		e.tracer.Emit(trace.Event{
			Type: trace.RentalStarted, T: t,
			Cluster: cluster, Machine: machine, Rate: rate,
		})
	}
}

// rentalEnd bills one machine's span and emits RentalEnded. A machine
// with no open rental (cost armed mid-abstraction, double drain) is
// ignored rather than billed.
func (e *Engine) rentalEnd(cluster string, machine int, t float64) {
	if e.meter == nil {
		return
	}
	amount, total, ok := e.meter.End(cluster, machine, t)
	if !ok {
		return
	}
	if e.wants(trace.RentalEnded) {
		e.tracer.Emit(trace.Event{
			Type: trace.RentalEnded, T: t,
			Cluster: cluster, Machine: machine,
			Amount: amount, Total: total,
		})
	}
}

// commitBurst accrues one admitted burst's prepaid charge — the exact
// quote the scheduler's budget gate compared against the remaining
// budget, recomputed here from the same estimate through the same meter.
// Retries never come back through this path: their reservation is already
// committed, and fallbacks get no refund, keeping the accrual monotone.
func (e *Engine) commitBurst(js *jobState, estStd, t float64) {
	if e.meter == nil {
		return
	}
	amount := e.meter.Charge(estStd)
	total := e.meter.Commit(amount)
	if e.wants(trace.CostAccrued) {
		e.tracer.Emit(trace.Event{
			Type: trace.CostAccrued, T: t,
			JobID: js.j.ID, Seq: js.seq,
			Amount: amount, Total: total,
		})
	}
}

// closeRentals bills every rental still open through end, in
// deterministic (cluster, machine) order.
func (e *Engine) closeRentals(end float64) {
	for _, r := range e.meter.Open() {
		e.rentalEnd(r.Cluster, r.Machine, end)
	}
}

// fillCostResult copies the meter's accounts into the result, closing
// open rentals on finite runs. Streaming runs only report the accrual —
// their rentals stay open for the continuation (a suspended checkpoint
// must not emit close-out events its restored twin cannot replay).
func (e *Engine) fillCostResult(r *Result, end float64) {
	if e.meter == nil {
		return
	}
	if e.streaming {
		r.CostRental = e.meter.AccruedAt(end)
	} else {
		e.closeRentals(end)
		r.CostRental = e.meter.RentalTotal()
	}
	r.CostCommitted = e.meter.Committed()
	r.CostBudget = e.meter.Budget()
}

// newMeter builds the run's meter from the validated config.
func newMeter(cfg Config) *cost.Meter {
	if cfg.Cost == nil {
		return nil
	}
	return cost.NewMeter(cfg.Cost.WithDefaults())
}

package engine

import (
	"sort"

	"cloudburst/internal/cluster"
	"cloudburst/internal/cost"
	"cloudburst/internal/trace"
)

// Cost metering hooks. The meter exists only when Config.Cost is set; all
// hooks below are no-ops otherwise, so unpriced runs stay bit-identical.
// The rental ledger is the sites' clusters: a machine rents from its
// AddedAt at its site's rate until it leaves the fleet. startMetering and
// autoscale boots announce rentals; a machine is billed where it leaves a
// fleet (an autoscale drain, a permanent revocation) and, on finite runs,
// by the close-out walk in fillCostResult. A suspended service's
// continuation still owns its rentals, so a streaming result only prices
// the same walk.

// startMetering announces the rental of every machine of each site's
// initial fleet. Called right after emitRunConfigured so RentalStarted
// events follow the stream opener.
func (e *Engine) startMetering() {
	if e.meter == nil {
		return
	}
	for _, s := range e.sites {
		for _, m := range s.cluster.Machines() {
			e.rentalStarted(s, m)
		}
	}
}

// rentalStarted emits RentalStarted for a machine that joined site s.
func (e *Engine) rentalStarted(s *ecSite, m *cluster.Machine) {
	if e.meter != nil && e.wants(trace.RentalStarted) {
		e.tracer.Emit(trace.Event{
			Type: trace.RentalStarted, T: m.AddedAt(),
			Cluster: s.cluster.Name, Machine: m.ID, Rate: s.rate,
		})
	}
}

// rentalEnded bills machine m of site s from its join time through t and
// emits RentalEnded.
func (e *Engine) rentalEnded(s *ecSite, m *cluster.Machine, t float64) {
	if e.meter == nil {
		return
	}
	amount, total := e.meter.Bill(m.AddedAt(), t, s.rate)
	if e.wants(trace.RentalEnded) {
		e.tracer.Emit(trace.Event{
			Type: trace.RentalEnded, T: t,
			Cluster: s.cluster.Name, Machine: m.ID,
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

// fillCostResult copies the meter's accounts into the result. It walks the
// open rentals — every active machine of every site — in (cluster name,
// machine ID) order: a finite run bills each through end, a streaming run
// only adds up what they would cost (a suspended checkpoint must not emit
// close-out events its restored twin cannot replay).
func (e *Engine) fillCostResult(r *Result, end float64) {
	if e.meter == nil {
		return
	}
	sites := append([]*ecSite(nil), e.sites...)
	sort.Slice(sites, func(i, j int) bool { return sites[i].cluster.Name < sites[j].cluster.Name })
	accrued := e.meter.RentalTotal()
	for _, s := range sites {
		for _, m := range s.cluster.Machines() {
			if e.streaming {
				accrued += cost.BillSpan(m.AddedAt(), end, e.meter.BillingInterval(), s.rate)
			} else {
				e.rentalEnded(s, m, end)
			}
		}
	}
	if !e.streaming {
		accrued = e.meter.RentalTotal()
	}
	r.CostRental = accrued
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

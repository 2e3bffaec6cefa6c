package sla

import (
	"fmt"
	"math"
	"sort"
)

// Tickets implement the paper's service promise: "Jobs are given a ticket
// that they will finish a certain number of seconds from their submission
// point." A ticket policy assigns each job a deadline offset from its
// arrival; the ticket metrics report how well a schedule honoured those
// promises. The paper notes the OO metric is "directly correlated" with
// ticket satisfaction — the correlation is measurable here.

// TicketPolicy assigns a promised completion offset (seconds from arrival)
// to a queue slot, given its output size in bytes. Policies see only
// information available at submission time.
type TicketPolicy func(seq int, outputSize int64) float64

// FixedTicket promises every job the same offset.
func FixedTicket(seconds float64) TicketPolicy {
	if seconds <= 0 {
		panic(fmt.Sprintf("sla: ticket offset %v must be positive", seconds))
	}
	return func(int, int64) float64 { return seconds }
}

// ProportionalTicket promises secondsPerMB of the job's output plus a base —
// big jobs get proportionally longer tickets, the natural policy when
// processing time scales with size.
func ProportionalTicket(base, secondsPerMB float64) TicketPolicy {
	if base < 0 || secondsPerMB < 0 || base+secondsPerMB == 0 {
		panic("sla: proportional ticket needs non-negative terms, not both zero")
	}
	return func(_ int, out int64) float64 {
		return base + secondsPerMB*float64(out)/(1<<20)
	}
}

// PositionalTicket promises perSlot seconds times the job's queue position
// plus a base — the promise a FCFS shop would quote ("you are Nth in
// line").
func PositionalTicket(base, perSlot float64) TicketPolicy {
	if base < 0 || perSlot < 0 || base+perSlot == 0 {
		panic("sla: positional ticket needs non-negative terms, not both zero")
	}
	return func(seq int, _ int64) float64 {
		return base + perSlot*float64(seq+1)
	}
}

// TicketReport summarizes promise keeping for one run.
type TicketReport struct {
	Jobs      int
	Kept      int     // completed within the promised offset
	KeptRatio float64 // Kept / Jobs
	// MeanLateness averages max(0, completion − promise) in seconds over
	// all jobs (0 for kept tickets).
	MeanLateness float64
	// P95Lateness is the 95th percentile of the same quantity.
	P95Lateness float64
	// WorstLateness is the single worst broken promise.
	WorstLateness float64
}

// TicketsKept evaluates a policy against the completed records.
func (s *Set) TicketsKept(policy TicketPolicy) TicketReport {
	if policy == nil {
		panic("sla: nil ticket policy")
	}
	rep := TicketReport{Jobs: s.n}
	if s.n == 0 {
		return rep
	}
	lateness := make([]float64, 0, s.n)
	var sum float64
	s.each(func(r *Record) {
		promise := r.ArrivalTime + policy(r.Seq, r.OutputSize)
		late := r.CompletedAt - promise
		if late <= 0 {
			rep.Kept++
			lateness = append(lateness, 0)
			return
		}
		lateness = append(lateness, late)
		sum += late
		if late > rep.WorstLateness {
			rep.WorstLateness = late
		}
	})
	rep.KeptRatio = float64(rep.Kept) / float64(rep.Jobs)
	rep.MeanLateness = sum / float64(rep.Jobs)
	sort.Float64s(lateness)
	// Nearest-rank percentile: the smallest value covering 95% of jobs.
	idx := int(math.Ceil(0.95*float64(len(lateness)))) - 1
	if idx < 0 {
		idx = 0
	}
	rep.P95Lateness = lateness[idx]
	return rep
}

// MinimalUniformTicket returns the smallest fixed offset that this run
// would have kept for the given fraction of jobs (e.g. 0.95) — the
// tightest uniform promise the operator could have quoted in hindsight.
func (s *Set) MinimalUniformTicket(fraction float64) float64 {
	if fraction <= 0 || fraction > 1 {
		panic(fmt.Sprintf("sla: fraction %v out of (0,1]", fraction))
	}
	if s.n == 0 {
		return 0
	}
	offsets := make([]float64, 0, s.n)
	s.each(func(r *Record) { offsets = append(offsets, r.CompletedAt-r.ArrivalTime) })
	sort.Float64s(offsets)
	// Nearest rank: the smallest offset covering at least the fraction.
	idx := int(math.Ceil(fraction*float64(len(offsets)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(offsets) {
		idx = len(offsets) - 1
	}
	return offsets[idx]
}

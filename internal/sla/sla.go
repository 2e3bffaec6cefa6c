// Package sla computes the paper's service-level metrics over completed
// job records: the Out-of-Order (OO) metric (Sec. II-B, eq. 3–6), makespan
// (eq. 7), speedup (eq. 10), burst ratio (eq. 11–12), and the in-order wait
// series behind the completion-time figures (Figs. 7–8).
//
// Records are keyed by a result-queue sequence number Seq (0-based): the
// position of the job in the post-chunking FCFS queue. The downstream
// consumer (printer, workflow stage) expects outputs in Seq order.
package sla

import (
	"fmt"
	"math/bits"
)

// Where identifies the cloud that processed a job.
type Where int

const (
	// IC is the internal cloud.
	IC Where = iota
	// EC is the external cloud.
	EC
)

// String names the placement.
func (w Where) String() string {
	if w == EC {
		return "EC"
	}
	return "IC"
}

// Record is one completed job.
type Record struct {
	Seq         int   // result-queue position (0-based, post-chunking)
	JobID       int   // original job ID
	BatchID     int   // arrival batch
	OutputSize  int64 // bytes delivered downstream
	ArrivalTime float64
	CompletedAt float64 // when the output reached the result queue
	Where       Where
}

// Set accumulates completion records for one run.
//
// Records live in fixed pages indexed by Seq: page k holds positions
// [32k, 32k+32) and one occupancy bit per position. The engine hands out
// queue positions densely from 0, so the pages fill in place, a duplicate
// is a bit already set, and every reader walks Seq order without sorting.
// A page is allocated when its first record lands; an untouched range
// costs one nil pointer per 32 positions. Open jobs leave their bits
// clear, and the readers skip them.
type Set struct {
	pages []*page
	n     int // records held

	// Scalar metrics fold in as records arrive, so Makespan, BurstRatio and
	// MeanFlowTime are O(1) at read time instead of re-walking the set. The
	// accumulators mirror the summation order of the loops they replace
	// (insertion order), so the floating-point results are bit-identical.
	minArrival float64
	maxDone    float64
	ecCount    int
	flowSum    float64 // Σ (CompletedAt − ArrivalTime), insertion order
}

// pageShift sets the page size, 32 records. A short sweep cell holds about
// 18 records, so a larger page wastes most of its only page; a smaller one
// costs long runs more allocations and pointers. DESIGN.md §8 has the
// measurements.
const (
	pageShift = 5
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// page holds the records of 32 consecutive queue positions; bit i of done
// marks recs[i] as completed.
type page struct {
	done uint32
	recs [pageSize]Record
}

// NewSet returns an empty record set.
func NewSet() *Set {
	return &Set{}
}

// RecordError reports a malformed completion record rejected by Add. It
// follows the library's *OptionError convention: callers branch on the
// offending field programmatically instead of parsing the message.
type RecordError struct {
	Seq    int    // the record's sequence position
	Field  string // offending Record field, e.g. "Seq" or "CompletedAt"
	Value  any    // the rejected value
	Reason string // why the value was rejected
}

// Error renders the conventional sla-prefixed message.
func (e *RecordError) Error() string {
	return fmt.Sprintf("sla: record seq %d: %s %v %s", e.Seq, e.Field, e.Value, e.Reason)
}

// Add records a completion. Malformed records — negative sequence,
// duplicate sequence (every queue slot completes exactly once), or a
// completion stamped before its arrival — are rejected with a typed
// *RecordError and leave the set unchanged.
func (s *Set) Add(r Record) error {
	if r.Seq < 0 {
		return &RecordError{Seq: r.Seq, Field: "Seq", Value: r.Seq, Reason: "must not be negative"}
	}
	pi, bit := r.Seq>>pageShift, uint32(1)<<(r.Seq&pageMask)
	if pi < len(s.pages) && s.pages[pi] != nil && s.pages[pi].done&bit != 0 {
		return &RecordError{Seq: r.Seq, Field: "Seq", Value: r.Seq, Reason: "already completed (duplicate sequence)"}
	}
	if r.CompletedAt < r.ArrivalTime {
		return &RecordError{Seq: r.Seq, Field: "CompletedAt", Value: r.CompletedAt,
			Reason: fmt.Sprintf("precedes arrival %v", r.ArrivalTime)}
	}
	if s.n == 0 || r.ArrivalTime < s.minArrival {
		s.minArrival = r.ArrivalTime
	}
	if s.n == 0 || r.CompletedAt > s.maxDone {
		s.maxDone = r.CompletedAt
	}
	if r.Where == EC {
		s.ecCount++
	}
	s.flowSum += r.CompletedAt - r.ArrivalTime
	for pi >= len(s.pages) {
		s.pages = append(s.pages, nil)
	}
	p := s.pages[pi]
	if p == nil {
		p = new(page)
		s.pages[pi] = p
	}
	p.recs[r.Seq&pageMask] = r
	p.done |= bit
	s.n++
	return nil
}

// MustAdd is Add for callers whose records are correct by construction (the
// engine's result queue): a malformed record is a bug, so it panics.
func (s *Set) MustAdd(r Record) {
	if err := s.Add(r); err != nil {
		panic(err.Error())
	}
}

// Len returns the number of records.
func (s *Set) Len() int { return s.n }

// each calls fn on every record in Seq order. fn must not keep r.
func (s *Set) each(fn func(r *Record)) {
	for _, p := range s.pages {
		if p == nil {
			continue
		}
		for m := p.done; m != 0; m &= m - 1 {
			fn(&p.recs[bits.TrailingZeros32(m)])
		}
	}
}

// Records returns a copy of the records sorted by Seq.
func (s *Set) Records() []Record {
	out := make([]Record, 0, s.n)
	s.each(func(r *Record) { out = append(out, *r) })
	return out
}

// End returns the latest completion time, or 0 for an empty set.
func (s *Set) End() float64 {
	if s.n == 0 {
		return 0
	}
	return s.maxDone
}

// Makespan is eq. (7): the latest completion minus the earliest arrival.
func (s *Set) Makespan() float64 {
	if s.n == 0 {
		return 0
	}
	return s.maxDone - s.minArrival
}

// Speedup is eq. (10) with the ratio oriented so that bigger is better:
// sequential standard-machine time divided by the cloud-bursting makespan.
// (The paper's printed formula is inverted relative to its own prose
// "speedup measures how fast the jobs completed"; we follow the prose.)
func (s *Set) Speedup(tseq float64) float64 {
	c := s.Makespan()
	if c <= 0 || tseq <= 0 {
		return 0
	}
	return tseq / c
}

// BurstRatio is eq. (12): the fraction of jobs processed in the EC.
func (s *Set) BurstRatio() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ecCount) / float64(s.n)
}

// BatchBurstRatios is eq. (11): the burst ratio of each arrival batch.
func (s *Set) BatchBurstRatios() map[int]float64 {
	total := make(map[int]int)
	burst := make(map[int]int)
	s.each(func(r *Record) {
		total[r.BatchID]++
		if r.Where == EC {
			burst[r.BatchID]++
		}
	})
	out := make(map[int]float64, len(total))
	for b, n := range total {
		out[b] = float64(burst[b]) / float64(n)
	}
	return out
}

// MeanFlowTime returns the average completion−arrival time (a secondary
// responsiveness metric used in the ablation benches).
func (s *Set) MeanFlowTime() float64 {
	if s.n == 0 {
		return 0
	}
	return s.flowSum / float64(s.n)
}

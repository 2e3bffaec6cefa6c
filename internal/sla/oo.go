package sla

import (
	"fmt"

	"cloudburst/internal/stats"
)

// OOAt evaluates equations (3)–(6) at sampling time t: given the completed
// records, it returns the maximum sequence position m_t up to which results
// can be consumed in order within tolerance tol, and the cumulative output
// bytes o_t of completed jobs at or below m_t.
//
// Sequence positions are 0-based; with the paper's 1-based ids the
// constraint i − t_l ≤ |J_it| becomes (seq+1) − tol ≤ completedUpTo(seq).
// tol = 0 demands strict order; m_t = −1 means nothing is consumable.
func (s *Set) OOAt(t float64, tol int) (mt int, ot int64) {
	if tol < 0 {
		panic(fmt.Sprintf("sla: negative tolerance %d", tol))
	}
	mt = -1
	completedUpTo := 0 // |J_it|: completed records with Seq ≤ current
	var done int64     // output bytes of the records counted so far
	// Walk in Seq order, counting completions; a record completed by t at
	// position seq satisfies the constraint when (seq+1)−tol ≤ count. Each
	// satisfying record raises m_t to its own position, so o_t is the byte
	// count at that moment.
	s.each(func(r *Record) {
		if r.CompletedAt <= t {
			completedUpTo++
			done += r.OutputSize
			if (r.Seq+1)-tol <= completedUpTo {
				mt, ot = r.Seq, done
			}
		}
	})
	return mt, ot
}

// OOSeries samples the OO metric (o_t, in bytes) on a regular grid from the
// earliest arrival to the makespan end — the paper samples every 2 minutes.
func (s *Set) OOSeries(interval float64, tol int, name string) *stats.TimeSeries {
	if interval <= 0 {
		panic("sla: OO sampling interval must be positive")
	}
	ts := &stats.TimeSeries{Name: name}
	if s.n == 0 {
		return ts
	}
	start, end := s.minArrival, s.maxDone
	for t := start; t <= end+interval; t += interval {
		_, ot := s.OOAt(t, tol)
		ts.Append(t, float64(ot))
	}
	return ts
}

// InOrderWaitSeries returns, for each sequence position i ≥ 1, the signed
// wait the in-order consumer experiences for job i:
//
//	wait_i = t_c(i) − max_{k<i} t_c(k)
//
// A positive value (peak) means job i arrived after everything before it
// was already done — downstream stalls for that long. A negative value
// (valley) means the output was ready early. This is the quantity plotted
// per job in the paper's Figs. 7–8.
func (s *Set) InOrderWaitSeries(name string) *stats.TimeSeries {
	ts := &stats.TimeSeries{Name: name}
	if s.n < 2 {
		return ts
	}
	ts.Points = make([]stats.Point, 0, s.n-1)
	s.eachWait(func(r *Record, wait float64) { ts.Append(float64(r.Seq), wait) })
	return ts
}

// eachWait calls fn with every record after the first in Seq order and its
// in-order wait (see InOrderWaitSeries).
func (s *Set) eachWait(fn func(r *Record, wait float64)) {
	first, maxSoFar := true, 0.0
	s.each(func(r *Record) {
		if first {
			first, maxSoFar = false, r.CompletedAt
			return
		}
		fn(r, r.CompletedAt-maxSoFar)
		if r.CompletedAt > maxSoFar {
			maxSoFar = r.CompletedAt
		}
	})
}

// CompletionSeries returns completion time by sequence position.
func (s *Set) CompletionSeries(name string) *stats.TimeSeries {
	ts := &stats.TimeSeries{Name: name}
	if s.n == 0 {
		return ts
	}
	ts.Points = make([]stats.Point, 0, s.n)
	s.each(func(r *Record) { ts.Append(float64(r.Seq), r.CompletedAt) })
	return ts
}

// InOrderStats summarizes the in-order waits without building the series:
// the positive waits (peaks), their total stall seconds and the largest,
// and the strictly negative waits (valleys, outputs ready before needed).
// The paper reads Figs. 7–8 through exactly this lens — "more the number
// of high peaks, more is the wait period".
func (s *Set) InOrderStats() (peaks int, stall, maxPeak float64, valleys int) {
	s.eachWait(func(_ *Record, wait float64) {
		switch {
		case wait > 0:
			peaks++
			stall += wait
			if wait > maxPeak {
				maxPeak = wait
			}
		case wait < 0:
			valleys++
		}
	})
	return peaks, stall, maxPeak, valleys
}

// OrderedFractionAt returns the fraction of total output bytes consumable
// in order at time t with the given tolerance — a normalized OO metric for
// cross-run comparison.
func (s *Set) OrderedFractionAt(t float64, tol int) float64 {
	if s.totalOutput == 0 {
		return 0
	}
	_, ot := s.OOAt(t, tol)
	return float64(ot) / float64(s.totalOutput)
}

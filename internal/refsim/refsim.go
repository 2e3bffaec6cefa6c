// Package refsim is the differential reference simulator: a slow,
// allocation-happy, obviously-correct twin of the production stack. It runs
// the engine with every speed trick disabled (sim.NewReference: linear-scan
// event selection, no event pooling, no estimator cache)
// and with naive reimplementations of the Greedy, Op and SIBS schedulers
// that use plain slices and linear scans in place of the fheap-based pools
// and pipelines. Metrics are then recomputed from first principles off the
// completion records, independent of the sla package's cached paths.
//
// Because job slots are interchangeable (only their free-time horizons
// matter) and the naive code replicates the production arithmetic
// expression for expression, a correct engine agrees with the reference
// bit for bit; the differential tests demand a relative error ≤ 1e-9.
package refsim

import (
	"fmt"

	"cloudburst/internal/engine"
	"cloudburst/internal/sched"
	"cloudburst/internal/sla"
	"cloudburst/internal/workload"
)

// NewScheduler returns the reference twin of the named production
// scheduler: "Greedy", "Op" or "SIBS".
func NewScheduler(name string) (sched.Scheduler, error) {
	switch name {
	case "Greedy":
		return Greedy{}, nil
	case "Op":
		return Op{}, nil
	case "SIBS":
		return &SIBS{}, nil
	}
	return nil, fmt.Errorf("refsim: no reference scheduler named %q", name)
}

// Run executes the workload on the reference stack: the naive scheduler
// picked by name, on the engine forced into reference mode.
func Run(cfg engine.Config, schedulerName string, batches []workload.Batch) (*engine.Result, error) {
	s, err := NewScheduler(schedulerName)
	if err != nil {
		return nil, err
	}
	cfg.Reference = true
	return engine.Run(cfg, s, batches)
}

// Point is one sample of the reference OO series.
type Point struct {
	T float64
	O float64 // consumable output bytes o_t
}

// Metrics are the SLA quantities recomputed from scratch off the completion
// records — no caches, no incremental state, O(n²) where that is the
// straightforward shape.
type Metrics struct {
	Makespan   float64
	BurstRatio float64
	OOSeries   []Point
}

// Recompute derives the reference metrics from a record set. interval and
// tol parameterize the OO series exactly as sla.Set.OOSeries does.
func Recompute(set *sla.Set, interval float64, tol int) Metrics {
	recs := set.Records()
	var m Metrics
	if len(recs) == 0 {
		return m
	}

	// Sort by Seq ourselves — Records() already returns Seq order, but the
	// reference path must not lean on the production set for its ordering.
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].Seq < recs[j-1].Seq; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}

	start := recs[0].ArrivalTime
	end := recs[0].CompletedAt
	ec := 0
	for _, r := range recs {
		if r.ArrivalTime < start {
			start = r.ArrivalTime
		}
		if r.CompletedAt > end {
			end = r.CompletedAt
		}
		if r.Where == sla.EC {
			ec++
		}
	}
	m.Makespan = end - start
	m.BurstRatio = float64(ec) / float64(len(recs))

	for t := start; t <= end+interval; t += interval {
		m.OOSeries = append(m.OOSeries, Point{T: t, O: float64(ooAt(recs, t, tol))})
	}
	return m
}

// ooAt evaluates eq. (3)–(6) at time t over Seq-sorted records: find the
// deepest consumable position m_t under tolerance tol, then sum the output
// bytes at or below it.
func ooAt(recs []sla.Record, t float64, tol int) int64 {
	mt := -1
	completedUpTo := 0
	for _, r := range recs {
		if r.CompletedAt <= t {
			completedUpTo++
			if (r.Seq+1)-tol <= completedUpTo {
				if r.Seq > mt {
					mt = r.Seq
				}
			}
		}
	}
	if mt < 0 {
		return 0
	}
	var ot int64
	for _, r := range recs {
		if r.Seq <= mt && r.CompletedAt <= t {
			ot += r.OutputSize
		}
	}
	return ot
}

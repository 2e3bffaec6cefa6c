package sched

import (
	"math"
	"sort"

	"cloudburst/internal/job"
	"cloudburst/internal/netsim"
)

// SIBS is the Order Preserving scheduler extended with size-interval
// bandwidth splitting (Algorithm 3). Per batch it (a) identifies the jobs
// that could plausibly be bursted (their no-load EC round trip beats the
// accumulating IC backlog), (b) partitions their sorted sizes into
// small/medium/large groups proportional to the upload queues' left-over
// capacity, and (c) publishes the resulting size bounds, which the engine
// hands to every site's uploader (netsim.Uploader). Placement itself is
// the slack rule of Algorithm 2.
type SIBS struct {
	Cfg Config

	// CVGate disables splitting when the burst candidates' size
	// coefficient of variation falls below it — the paper observes that
	// "when the job size variability is low, the behavior of size-interval
	// splitting defaults to that of having a single interval", and that
	// splitting pays off when the CV is near 1. Zero means the default
	// (0.2); negative disables the gate entirely.
	CVGate float64

	lastSBound, lastMBound int64
	boundsValid            bool
}

func (s *SIBS) cvGate() float64 {
	if s.CVGate == 0 {
		return 0.2
	}
	if s.CVGate < 0 {
		return 0
	}
	return s.CVGate
}

// Name implements Scheduler.
func (s *SIBS) Name() string { return "SIBS" }

// Bounds returns the size-interval bounds computed by the most recent
// Schedule call; ok is false before the first call or when the batch had no
// burst candidates (the engine then keeps the previous bounds).
func (s *SIBS) Bounds() (sBound, mBound int64, ok bool) {
	return s.lastSBound, s.lastMBound, s.boundsValid
}

// Schedule implements Scheduler.
func (s *SIBS) Schedule(batch []*job.Job, st *State, alloc job.IDAllocator) []Decision {
	cfg := s.Cfg.withDefaults()
	jobs := chunkPass(batch, cfg, alloc)
	s.computeBounds(jobs, st)
	return placeWithSlack(jobs, st, cfg)
}

// computeBounds is lines 1–17 of Algorithm 3.
func (s *SIBS) computeBounds(jobs []*job.Job, st *State) {
	n := st.ICMachines
	if n < 1 {
		n = 1
	}
	// iload: the IC compute backlog, in seconds per machine.
	iload := st.ICBacklogStd / (float64(n) * st.ICSpeed)
	upBW := st.upBW(st.Now)
	downBW := st.downBW(st.Now)

	var candidates []int64
	var rload float64 // std-seconds of batch work accumulated for the IC
	for _, j := range jobs {
		est := st.estProc(j)
		// Completion time in EC under no load (line 5).
		tec := float64(j.InputSize)/upBW + est/st.ECSpeed + float64(j.OutputSize)/downBW
		if tec < iload+rload/(float64(n)*st.ICSpeed) {
			candidates = append(candidates, j.InputSize)
		} else {
			rload += est
		}
	}
	if len(candidates) == 0 {
		s.boundsValid = false
		return
	}
	if sizeCV(candidates) < s.cvGate() {
		// Low variability: collapse to a single interval (all jobs route
		// to the large queue).
		s.lastSBound, s.lastMBound = 0, 0
		s.boundsValid = true
		return
	}
	// Normalized left-over capacity (line 13): 1 − queueShare.
	sUp, mUp, lUp := st.UploadQueues[0], st.UploadQueues[1], st.UploadQueues[2]
	total := sUp + mUp + lUp
	var sLeft, mLeft, lLeft float64
	if total <= 0 {
		sLeft, mLeft, lLeft = 1, 1, 1
	} else {
		sLeft = 1 - sUp/total
		mLeft = 1 - mUp/total
		lLeft = 1 - lUp/total
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	s.lastSBound, s.lastMBound = netsim.PartitionBySize(candidates, sLeft, mLeft, lLeft)
	s.boundsValid = true
}

// sizeCV returns the coefficient of variation of the candidate sizes.
func sizeCV(sizes []int64) float64 {
	if len(sizes) < 2 {
		return 0
	}
	var mean float64
	for _, v := range sizes {
		mean += float64(v)
	}
	mean /= float64(len(sizes))
	if mean == 0 {
		return 0
	}
	var v float64
	for _, x := range sizes {
		d := float64(x) - mean
		v += d * d
	}
	return math.Sqrt(v/float64(len(sizes))) / mean
}

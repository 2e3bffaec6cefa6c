package netsim

import (
	"math"

	"cloudburst/internal/sim"
)

// Uploader is the upload path of one external cloud (Fig. 5): either one
// FIFO queue, or the three size-interval queues of SIBS (Sec. IV-C) —
// small, medium, large — sharing the link, which isolates small jobs from
// large ones. Per the paper's policy, a job from a lower (smaller-size)
// queue may ride an idle higher queue, but large jobs never descend into
// the small queue.
//
// Bounds are set per scheduling round by Algorithm 3 (see the sched
// package); until then everything routes by the current bounds. A
// one-queue uploader has no bounds.
type Uploader struct {
	// q[:n] are the queues in ascending size order. An array, not a
	// slice, so a one-queue uploader held by value costs no allocation.
	q [3]*Queue
	n int

	sBound, mBound int64
}

// NewUploader creates a one-queue uploader on the given link. The queue
// transfers with the tuner's thread count when tuner is non-nil.
func NewUploader(eng *sim.Engine, name string, link *Link, tuner *Tuner) Uploader {
	return Uploader{q: [3]*Queue{NewQueue(eng, name, link, tuner, 1)}, n: 1}
}

// NewSplitUploader creates the three size-interval queues on the given link
// with initial size bounds (bytes). Each queue transfers with its own
// tuner-driven thread count when tuner is non-nil (shared tuner, as the
// prototype tunes one optimum per time period).
func NewSplitUploader(eng *sim.Engine, link *Link, tuner *Tuner, sBound, mBound int64) Uploader {
	qs := [3]*Queue{
		NewQueue(eng, "upload-small", link, tuner, 1),
		NewQueue(eng, "upload-medium", link, tuner, 1),
		NewQueue(eng, "upload-large", link, tuner, 1),
	}
	// Ride-up policy: an idle higher queue pulls the head of the nearest
	// lower queue that has one waiting.
	for i := 1; i < len(qs); i++ {
		qs[i].OnIdle = func(q *Queue) {
			for j := i - 1; j >= 0; j-- {
				if it := qs[j].StealHead(); it != nil {
					q.Enqueue(it)
					return
				}
			}
		}
	}
	u := Uploader{q: qs, n: len(qs)}
	u.SetBounds(sBound, mBound)
	return u
}

// Queues returns the transfer queues in ascending size order, so callers
// can install per-queue hooks: measurements, stall models and recovery.
func (u *Uploader) Queues() []*Queue { return u.q[:u.n] }

// SetBounds updates the small/medium upper size bounds. mBound is raised to
// at least sBound so the intervals stay ordered. A one-queue uploader keeps
// no bounds, so it ignores the call.
func (u *Uploader) SetBounds(sBound, mBound int64) {
	if u.n == 1 {
		return
	}
	if sBound < 0 {
		sBound = 0
	}
	if mBound < sBound {
		mBound = sBound
	}
	u.sBound, u.mBound = sBound, mBound
}

// Channels counts the distinct size intervals the current bounds define,
// which is how many transfers can run concurrently: 1 for one queue or
// collapsed bounds, where everything routes to the large queue.
func (u *Uploader) Channels() int {
	s, m := u.sBound, u.mBound
	switch {
	case s <= 0 && m <= 0:
		return 1
	case s == m || s <= 0:
		return 2
	default:
		return 3
	}
}

// Enqueue routes the item to its size-interval queue. If an eligible higher
// queue is idle while the home queue is busy, the item rides up immediately
// (maximizing bandwidth usage, per the paper).
func (u *Uploader) Enqueue(it *QueueItem) {
	qs := u.Queues()
	home := u.home(it.Bytes)
	if qs[home].Busy() || qs[home].QueuedItems() > 0 {
		for _, up := range qs[home+1:] {
			if !up.Busy() && up.QueuedItems() == 0 {
				up.Enqueue(it)
				return
			}
		}
	}
	qs[home].Enqueue(it)
}

// home returns the index of the queue an item of the given size belongs
// to: the first whose upper bound holds it, else the last.
func (u *Uploader) home(bytes int64) int {
	bounds := [2]int64{u.sBound, u.mBound}
	for i, b := range bounds[:u.n-1] {
		if bytes <= b {
			return i
		}
	}
	return u.n - 1
}

// Backlog returns the total bytes waiting or in flight across the queues.
func (u *Uploader) Backlog() float64 {
	var b float64
	for _, q := range u.Queues() {
		b += q.Backlog()
	}
	return b
}

// QueueBacklogs returns the per-queue backlogs (small, medium, large) used
// by Algorithm 3's left-over-capacity computation. A one-queue uploader
// reports its backlog as large.
func (u *Uploader) QueueBacklogs() (s, m, l float64) {
	var b [3]float64
	for i, q := range u.Queues() {
		b[len(b)-u.n+i] = q.Backlog()
	}
	return b[0], b[1], b[2]
}

// Busy reports whether any queue has an in-flight transfer.
func (u *Uploader) Busy() bool {
	for _, q := range u.Queues() {
		if q.Busy() {
			return true
		}
	}
	return false
}

// StealWaiting removes and returns the oldest waiting item of the highest
// queue that has one, or nil. The large queue goes first: its waiting jobs
// block the longest and never ride up, so reclaiming them for the IC frees
// the most slack.
func (u *Uploader) StealWaiting() *QueueItem {
	qs := u.Queues()
	for i := len(qs) - 1; i >= 0; i-- {
		if it := qs[i].StealHead(); it != nil {
			return it
		}
	}
	return nil
}

// PartitionBySize implements lines 13–17 of Algorithm 3: given the sorted
// candidate sizes L and the normalized left-over capacities of the three
// queues, it splits L into contiguous small/medium/large groups whose
// element counts are proportional to the capacities, and returns the upper
// size bound of the small and medium groups.
//
// leftover values are "1 − queueShare" per the paper; they are renormalized
// here, so any non-negative weights work. An empty L returns (0,0) meaning
// "everything is large".
func PartitionBySize(sorted []int64, sLeft, mLeft, lLeft float64) (sBound, mBound int64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	total := sLeft + mLeft + lLeft
	if total <= 0 {
		sLeft, mLeft, lLeft = 1, 1, 1
		total = 3
	}
	sCount := int(math.Round(float64(n) * sLeft / total))
	mCount := int(math.Round(float64(n) * mLeft / total))
	if sCount > n {
		sCount = n
	}
	if sCount+mCount > n {
		mCount = n - sCount
	}
	if sCount > 0 {
		sBound = sorted[sCount-1]
	}
	if sCount+mCount > 0 {
		mBound = sorted[sCount+mCount-1]
	}
	if mBound < sBound {
		mBound = sBound
	}
	return sBound, mBound
}

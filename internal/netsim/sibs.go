package netsim

import (
	"math"

	"cloudburst/internal/sim"
)

// SplitUploader implements the transfer side of size-interval bandwidth
// splitting (Sec. IV-C): three FIFO queues — small, medium, large — share
// the upload link, isolating small jobs from large ones. Per the paper's
// policy, a job from a lower (smaller-size) queue may ride an idle higher
// queue, but large jobs never descend into the small queue.
//
// Bounds are set per scheduling round by Algorithm 3 (see the sched
// package); until then everything routes by the current bounds.
type SplitUploader struct {
	Small, Medium, Large *Queue

	sBound, mBound int64
}

// NewSplitUploader creates the three queues on the given link with initial
// size bounds (bytes). Each queue transfers with its own tuner-driven
// thread count when tuner is non-nil (shared tuner, as the prototype tunes
// one optimum per time period).
func NewSplitUploader(eng *sim.Engine, link *Link, tuner *Tuner, sBound, mBound int64) *SplitUploader {
	u := &SplitUploader{
		Small:  NewQueue(eng, "upload-small", link, tuner, 1),
		Medium: NewQueue(eng, "upload-medium", link, tuner, 1),
		Large:  NewQueue(eng, "upload-large", link, tuner, 1),
	}
	u.SetBounds(sBound, mBound)
	// Ride-up policy: an idle higher queue pulls the head of the next
	// lower queue.
	u.Medium.OnIdle = func(q *Queue) {
		if it := u.Small.StealHead(); it != nil {
			q.Enqueue(it)
		}
	}
	u.Large.OnIdle = func(q *Queue) {
		if it := u.Medium.StealHead(); it != nil {
			q.Enqueue(it)
			return
		}
		if it := u.Small.StealHead(); it != nil {
			q.Enqueue(it)
		}
	}
	return u
}

// SetBounds updates the small/medium upper size bounds. mBound is raised to
// at least sBound so the intervals stay ordered.
func (u *SplitUploader) SetBounds(sBound, mBound int64) {
	if sBound < 0 {
		sBound = 0
	}
	if mBound < sBound {
		mBound = sBound
	}
	u.sBound, u.mBound = sBound, mBound
}

// Bounds returns the current (small, medium) upper bounds.
func (u *SplitUploader) Bounds() (int64, int64) { return u.sBound, u.mBound }

// Enqueue routes the item to its size-interval queue. If an eligible higher
// queue is idle while the home queue is busy, the item rides up immediately
// (maximizing bandwidth usage, per the paper).
func (u *SplitUploader) Enqueue(it *QueueItem) {
	home := u.queueFor(it.Bytes)
	if home.Busy() || home.QueuedItems() > 0 {
		if up := u.idleHigherQueue(home); up != nil {
			up.Enqueue(it)
			return
		}
	}
	home.Enqueue(it)
}

func (u *SplitUploader) queueFor(bytes int64) *Queue {
	switch {
	case bytes <= u.sBound:
		return u.Small
	case bytes <= u.mBound:
		return u.Medium
	default:
		return u.Large
	}
}

// idleHigherQueue returns an idle queue above home, or nil.
func (u *SplitUploader) idleHigherQueue(home *Queue) *Queue {
	switch home {
	case u.Small:
		if !u.Medium.Busy() && u.Medium.QueuedItems() == 0 {
			return u.Medium
		}
		fallthrough
	case u.Medium:
		if !u.Large.Busy() && u.Large.QueuedItems() == 0 {
			return u.Large
		}
	}
	return nil
}

// Backlog returns the total bytes waiting or in flight across all three
// queues.
func (u *SplitUploader) Backlog() float64 {
	return u.Small.Backlog() + u.Medium.Backlog() + u.Large.Backlog()
}

// QueueBacklogs returns the per-queue backlogs (small, medium, large) used
// by Algorithm 3's left-over-capacity computation.
func (u *SplitUploader) QueueBacklogs() (s, m, l float64) {
	return u.Small.Backlog(), u.Medium.Backlog(), u.Large.Backlog()
}

// Busy reports whether any queue has an in-flight transfer.
func (u *SplitUploader) Busy() bool {
	return u.Small.Busy() || u.Medium.Busy() || u.Large.Busy()
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

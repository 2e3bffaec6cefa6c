// Package invariant is an opt-in runtime checker for the simulation's
// structural invariants. It implements trace.Tracer and audits the event
// stream as it is emitted, one event at a time:
//
//   - the virtual clock never runs backwards (outage episodes excepted:
//     their detection is documented as lazy and may report out of order);
//   - every placed job is delivered exactly once, never before it arrived,
//     and chunked parents are never delivered themselves;
//   - bytes are conserved: every upload moves exactly the job's input,
//     every download exactly its output, delivery reports the same output,
//     and a chunked parent's children sum back to the parent's sizes;
//   - uploads pair: each UploadStart is closed once, by its UploadEnd, by a
//     TransferAborted, or by a steal-back (Rescheduled EC→IC) that withdrew
//     the upload before any byte moved;
//   - no transfer's achieved bandwidth exceeds the thread-model ceiling
//     advertised by RunConfigured;
//   - the slack admission rule holds at every gated placement and at every
//     gated fault re-admission: a job bursts iff its estimated round trip
//     fits the threshold;
//   - the OO metric (ordered output bytes, tolerance 0) recomputed
//     independently at every delivery is non-decreasing;
//   - compute machines are exclusive: a machine never starts a second task
//     before ending the first;
//   - cost accounting is sound: committed spend accrues monotonically, each
//     accrual's running total equals the previous total plus the charge,
//     spend never exceeds the budget announced by RunConfigured, rental
//     billing totals are monotone, and rentals pair (no machine is rented
//     twice without an intervening end, none is ended un-rented).
//
// Violations are collected, not panicked, so a single run reports every
// broken invariant at once. The checker is deliberately naive — maps and
// rescans, no incremental state shared with the engine — so it cannot
// inherit a bug from the code it audits.
package invariant

import (
	"fmt"
	"strings"

	"cloudburst/internal/trace"
)

// Eps is the float tolerance for slack and bandwidth comparisons, matching
// the audit subsystem's default.
const Eps = 1e-9

// Violation is one broken invariant, anchored to the event that exposed it.
type Violation struct {
	Invariant string  // short name, e.g. "monotonic-clock"
	T         float64 // virtual time of the offending event
	JobID     int     // offending job, or -1
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at t=%.3f job %d: %s", v.Invariant, v.T, v.JobID, v.Detail)
}

// maxKept bounds the retained violation list; past it only the count grows.
const maxKept = 64

type jobInfo struct {
	known       bool
	arrival     float64
	inputSize   int64
	outputSize  int64
	parent      int // chunk parent job ID, or -1
	isParent    bool
	placed      bool
	placedSeq   int
	delivered   int
	uploadsOpen int
}

type machineKey struct {
	cluster string
	machine int
}

// Checker audits one run's event stream. Use New, feed it as a
// trace.Tracer (typically via trace.Multi alongside other sinks), then call
// Finish once the run completes. Not safe for concurrent use, matching the
// Tracer contract.
type Checker struct {
	lastT      float64
	sawEvent   bool
	ceiling    float64 // per-transfer BW ceiling from RunConfigured; 0 = unknown
	jobs       map[int]*jobInfo
	busy       map[machineKey]int // machine -> job it is computing (may be -1 for subtasks)
	seqOwner   map[int]int        // result-queue seq -> job ID
	deliveredO map[int]int64      // seq -> output bytes, for the OO recompute
	lastOO     int64
	budget     float64 // burst budget from RunConfigured; 0 = unlimited
	committed  float64 // running committed spend from CostAccrued
	rentalTot  float64 // running rental billing total from RentalEnded
	rentals    map[machineKey]bool
	violations []Violation
	total      int
	finished   bool

	// Sharded-scheduling state. shardClaims maps (epoch, machine) to the
	// job that claimed the slot; lastEpoch enforces monotone snapshot
	// epochs; conflicted remembers every commit loser so Finish can prove
	// no job was lost on conflict re-placement.
	shardClaims map[machineKey]int
	lastEpoch   int
	conflicted  map[int]bool
}

// New returns an empty checker.
func New() *Checker {
	return &Checker{
		jobs:        make(map[int]*jobInfo),
		busy:        make(map[machineKey]int),
		seqOwner:    make(map[int]int),
		deliveredO:  make(map[int]int64),
		rentals:     make(map[machineKey]bool),
		shardClaims: make(map[machineKey]int),
		conflicted:  make(map[int]bool),
	}
}

func (c *Checker) fail(inv string, t float64, jobID int, format string, args ...any) {
	c.total++
	if len(c.violations) < maxKept {
		c.violations = append(c.violations, Violation{
			Invariant: inv, T: t, JobID: jobID, Detail: fmt.Sprintf(format, args...),
		})
	}
}

func (c *Checker) job(id int) *jobInfo {
	ji := c.jobs[id]
	if ji == nil {
		ji = &jobInfo{parent: -1}
		c.jobs[id] = ji
	}
	return ji
}

// InterestMask declares the event types the checker inspects, letting the
// engine's dispatch mask skip materializing everything else when only the
// checker listens. The monotonic-clock check then observes only these
// types, which cannot weaken it: every invariant the checker enforces is
// defined over this set. (Direct Emit calls — the seeded-violation tests —
// are unaffected; the mask gates the emitter, not the sink.)
func (c *Checker) InterestMask() trace.Mask {
	return trace.MaskOf(
		trace.RunConfigured, trace.JobArrived, trace.Chunked,
		trace.PlacementDecided, trace.JobRetried, trace.UploadStart,
		trace.TransferAborted, trace.UploadEnd, trace.DownloadEnd,
		trace.ComputeStart, trace.ComputeEnd, trace.JobDelivered,
		trace.RentalStarted, trace.RentalEnded, trace.CostAccrued,
		trace.PlacementConflict, trace.PlacementRetried, trace.Rescheduled,
	)
}

// Emit implements trace.Tracer.
func (c *Checker) Emit(ev trace.Event) {
	// Clock monotonicity. Outage detection is documented as lazy: those two
	// event types may surface out of order and are exempt.
	if ev.Type != trace.OutageStart && ev.Type != trace.OutageEnd {
		if c.sawEvent && ev.T < c.lastT-Eps {
			c.fail("monotonic-clock", ev.T, ev.JobID,
				"event %s at %.9f after clock reached %.9f", ev.Type, ev.T, c.lastT)
		}
		if ev.T > c.lastT {
			c.lastT = ev.T
		}
		c.sawEvent = true
	}

	switch ev.Type {
	case trace.RunConfigured:
		c.ceiling = ev.LinkBWCeiling
		c.budget = ev.Budget

	case trace.JobArrived:
		ji := c.job(ev.JobID)
		if ji.known {
			c.fail("job-lifecycle", ev.T, ev.JobID, "job arrived twice")
		}
		ji.known = true
		ji.arrival = ev.Arrival
		ji.inputSize = ev.Bytes
		ji.outputSize = ev.OutputBytes

	case trace.Chunked:
		ji := c.job(ev.JobID)
		ji.known = true
		ji.parent = ev.Parent
		c.job(ev.Parent).isParent = true

	case trace.PlacementDecided:
		ji := c.job(ev.JobID)
		if ji.placed {
			c.fail("job-lifecycle", ev.T, ev.JobID, "job placed twice")
		}
		ji.placed = true
		ji.placedSeq = ev.Seq
		// Chunk children are introduced by Chunked without a JobArrived;
		// their sizes arrive with the placement.
		if !ji.known || ji.parent >= 0 {
			ji.known = true
			ji.inputSize = ev.Bytes
			ji.outputSize = ev.OutputBytes
			ji.arrival = ev.Arrival
		}
		if owner, dup := c.seqOwner[ev.Seq]; dup {
			c.fail("job-lifecycle", ev.T, ev.JobID,
				"queue position %d already owned by job %d", ev.Seq, owner)
		}
		c.seqOwner[ev.Seq] = ev.JobID
		c.checkSlack(ev, "placement")
		c.checkShard(ev, true)

	case trace.JobRetried:
		// A retry that re-passed the slack rule is a fresh gated admission.
		if ev.To == "EC" {
			c.checkSlack(ev, "re-admission")
		}

	case trace.PlacementConflict:
		c.conflicted[ev.JobID] = true
		c.checkShard(ev, false)

	case trace.PlacementRetried:
		c.checkShard(ev, false)

	case trace.UploadStart:
		c.job(ev.JobID).uploadsOpen++

	case trace.TransferAborted:
		// An aborted upload never reaches UploadEnd; close its pairing so
		// the end-of-run check only flags transfers that truly leaked.
		if ji := c.job(ev.JobID); strings.HasPrefix(ev.Link, "upload") && ji.uploadsOpen > 0 {
			ji.uploadsOpen--
		}

	case trace.Rescheduled:
		// A steal-back (EC→IC) withdraws an upload still waiting in its
		// queue: it never reaches UploadEnd, so the move closes it.
		if ev.From == "EC" && ev.To == "IC" {
			if ji := c.job(ev.JobID); ji.uploadsOpen > 0 {
				ji.uploadsOpen--
			} else {
				c.fail("transfer-pairing", ev.T, ev.JobID, "steal-back with no upload open")
			}
		}

	case trace.UploadEnd:
		ji := c.job(ev.JobID)
		if ji.uploadsOpen <= 0 {
			c.fail("transfer-pairing", ev.T, ev.JobID, "UploadEnd without UploadStart")
		} else {
			ji.uploadsOpen--
		}
		if ji.known && ev.Bytes != ji.inputSize {
			c.fail("bytes-conserved", ev.T, ev.JobID,
				"uploaded %d bytes, job input is %d", ev.Bytes, ji.inputSize)
		}
		c.checkBW(ev)

	case trace.DownloadEnd:
		ji := c.job(ev.JobID)
		if ji.known && ev.Bytes != ji.outputSize {
			c.fail("bytes-conserved", ev.T, ev.JobID,
				"downloaded %d bytes, job output is %d", ev.Bytes, ji.outputSize)
		}
		c.checkBW(ev)

	case trace.ComputeStart:
		key := machineKey{ev.Cluster, ev.Machine}
		if other, taken := c.busy[key]; taken {
			c.fail("machine-exclusive", ev.T, ev.JobID,
				"machine %s/%d started while still running job %d", ev.Cluster, ev.Machine, other)
		}
		c.busy[key] = ev.JobID

	case trace.ComputeEnd:
		key := machineKey{ev.Cluster, ev.Machine}
		if _, taken := c.busy[key]; !taken {
			c.fail("machine-exclusive", ev.T, ev.JobID,
				"machine %s/%d ended a task it never started", ev.Cluster, ev.Machine)
		}
		delete(c.busy, key)

	case trace.JobDelivered:
		ji := c.job(ev.JobID)
		ji.delivered++
		switch {
		case ji.delivered > 1:
			c.fail("job-lifecycle", ev.T, ev.JobID, "job delivered %d times", ji.delivered)
		case ji.isParent:
			c.fail("job-lifecycle", ev.T, ev.JobID, "chunked parent delivered directly")
		case !ji.placed:
			c.fail("job-lifecycle", ev.T, ev.JobID, "job delivered without a placement")
		case ji.placedSeq != ev.Seq:
			c.fail("job-lifecycle", ev.T, ev.JobID,
				"delivered at queue position %d, placed at %d", ev.Seq, ji.placedSeq)
		}
		if ji.known && ev.OutputBytes != ji.outputSize {
			c.fail("bytes-conserved", ev.T, ev.JobID,
				"delivered %d output bytes, job output is %d", ev.OutputBytes, ji.outputSize)
		}
		if ji.known && ev.T < ji.arrival-Eps {
			c.fail("job-lifecycle", ev.T, ev.JobID,
				"delivered at %.3f before arrival %.3f", ev.T, ji.arrival)
		}
		if ji.delivered == 1 {
			c.checkOO(ev)
		}

	case trace.RentalStarted:
		key := machineKey{ev.Cluster, ev.Machine}
		if c.rentals[key] {
			c.fail("cost-rental", ev.T, ev.JobID,
				"machine %s/%d rented while already rented", ev.Cluster, ev.Machine)
		}
		c.rentals[key] = true

	case trace.RentalEnded:
		key := machineKey{ev.Cluster, ev.Machine}
		if !c.rentals[key] {
			c.fail("cost-rental", ev.T, ev.JobID,
				"machine %s/%d rental ended without a start", ev.Cluster, ev.Machine)
		}
		delete(c.rentals, key)
		if ev.Amount < -Eps {
			c.fail("cost-rental", ev.T, ev.JobID,
				"negative rental bill %.9f for %s/%d", ev.Amount, ev.Cluster, ev.Machine)
		}
		if ev.Total < c.rentalTot-Eps {
			c.fail("cost-rental", ev.T, ev.JobID,
				"rental total fell from %.9f to %.9f", c.rentalTot, ev.Total)
		}
		c.rentalTot = ev.Total

	case trace.CostAccrued:
		if ev.Amount < -Eps {
			c.fail("cost-budget", ev.T, ev.JobID, "negative accrual %.9f", ev.Amount)
		}
		want := c.committed + ev.Amount
		if diff := ev.Total - want; diff > Eps || diff < -Eps {
			c.fail("cost-budget", ev.T, ev.JobID,
				"accrued total %.9f, expected previous %.9f + charge %.9f",
				ev.Total, c.committed, ev.Amount)
		}
		if ev.Total < c.committed-Eps {
			c.fail("cost-budget", ev.T, ev.JobID,
				"committed spend fell from %.9f to %.9f", c.committed, ev.Total)
		}
		if c.budget > 0 && ev.Total > c.budget+Eps {
			c.fail("cost-budget", ev.T, ev.JobID,
				"committed spend %.9f exceeds budget %.9f", ev.Total, c.budget)
		}
		c.committed = ev.Total
	}
}

// checkShard audits the sharded commit protocol. Epochs must never move
// backwards — a commit stamped with an epoch below one already observed
// means a shard committed against a stale snapshot. Within one epoch, a
// claimed primary-EC machine slot belongs to exactly one committed
// placement (claim is true only for PlacementDecided carrying a claim).
func (c *Checker) checkShard(ev trace.Event, claim bool) {
	if ev.Epoch <= 0 {
		return
	}
	if ev.Epoch < c.lastEpoch {
		c.fail("shard-epoch", ev.T, ev.JobID,
			"%s committed against stale epoch %d after epoch %d", ev.Type, ev.Epoch, c.lastEpoch)
	} else {
		c.lastEpoch = ev.Epoch
	}
	if claim && ev.Where == "EC" && ev.Site == 0 && ev.Machine >= 0 {
		key := machineKey{fmt.Sprintf("epoch%d", ev.Epoch), ev.Machine}
		if other, taken := c.shardClaims[key]; taken {
			c.fail("shard-exclusive", ev.T, ev.JobID,
				"machine ec/%d claimed twice in epoch %d (already held by job %d)",
				ev.Machine, ev.Epoch, other)
		}
		c.shardClaims[key] = ev.JobID
	}
}

// checkSlack verifies a gated admission: burst iff the estimated round trip
// fits the threshold.
func (c *Checker) checkSlack(ev trace.Event, kind string) {
	if !ev.Gated {
		return
	}
	where := ev.Where
	if ev.Type == trace.JobRetried {
		where = ev.To
	}
	switch where {
	case "EC":
		if ev.EstEC > ev.Threshold+Eps {
			c.fail("slack-admission", ev.T, ev.JobID,
				"%s bursted with estEC %.6f > threshold %.6f", kind, ev.EstEC, ev.Threshold)
		}
	case "IC":
		if ev.EstEC < ev.Threshold-Eps {
			c.fail("slack-admission", ev.T, ev.JobID,
				"%s kept local with estEC %.6f < threshold %.6f", kind, ev.EstEC, ev.Threshold)
		}
	}
}

// checkBW bounds a finished transfer's achieved bandwidth by the
// thread-model ceiling. Probe path measurements are excluded by
// construction: they emit ProbeCompleted, whose PathBW aggregates
// concurrency and legitimately exceeds a single transfer's limit.
func (c *Checker) checkBW(ev trace.Event) {
	if c.ceiling <= 0 || ev.BW <= 0 {
		return
	}
	if ev.BW > c.ceiling*(1+Eps) {
		c.fail("bw-ceiling", ev.T, ev.JobID,
			"transfer on %s achieved %.3f B/s, thread-model ceiling is %.3f",
			ev.Link, ev.BW, c.ceiling)
	}
}

// checkOO independently recomputes the ordered-output metric (tolerance 0)
// over everything delivered so far and asserts it never decreases. The scan
// is intentionally from scratch: with strict ordering, o_t is the output
// sum of the contiguous queue prefix that has been delivered.
func (c *Checker) checkOO(ev trace.Event) {
	if ev.Seq >= 0 {
		c.deliveredO[ev.Seq] = ev.OutputBytes
	}
	var o int64
	for seq := 0; ; seq++ {
		b, ok := c.deliveredO[seq]
		if !ok {
			break
		}
		o += b
	}
	if o < c.lastOO {
		c.fail("oo-monotone", ev.T, ev.JobID,
			"ordered output fell from %d to %d bytes", c.lastOO, o)
	}
	c.lastOO = o
}

// Finish runs the end-of-stream checks (every placed job delivered, no
// machine left mid-task, chunk sums match their parents) and returns all
// violations in detection order. Calling Finish more than once returns the
// same list without re-running the final checks.
func (c *Checker) Finish() []Violation {
	if c.finished {
		return c.violations
	}
	c.finished = true
	type parentSum struct{ in, out int64 }
	sums := make(map[int]parentSum)
	for id, ji := range c.jobs {
		if ji.placed && ji.delivered == 0 {
			c.fail("job-lifecycle", c.lastT, id, "job placed but never delivered")
		}
		if ji.known && !ji.placed && !ji.isParent && ji.delivered == 0 {
			c.fail("job-lifecycle", c.lastT, id, "job arrived but was never placed")
		}
		if ji.uploadsOpen > 0 {
			c.fail("transfer-pairing", c.lastT, id, "%d uploads never finished", ji.uploadsOpen)
		}
		if ji.parent >= 0 && ji.known {
			s := sums[ji.parent]
			s.in += ji.inputSize
			s.out += ji.outputSize
			sums[ji.parent] = s
		}
	}
	for parent, s := range sums {
		pi := c.jobs[parent]
		if pi == nil || !pi.known {
			continue
		}
		if s.in != pi.inputSize || s.out != pi.outputSize {
			c.fail("bytes-conserved", c.lastT, parent,
				"chunks sum to %d/%d bytes in/out, parent has %d/%d",
				s.in, s.out, pi.inputSize, pi.outputSize)
		}
	}
	for key, jobID := range c.busy {
		c.fail("machine-exclusive", c.lastT, jobID,
			"machine %s/%d still mid-task at end of run", key.cluster, key.machine)
	}
	for id := range c.conflicted {
		ji := c.jobs[id]
		if ji == nil || (!ji.placed && !ji.isParent) {
			c.fail("shard-conflict-resolved", c.lastT, id,
				"job lost a placement conflict and was never re-placed")
		}
	}
	return c.violations
}

// Current returns the violations detected so far without running the
// end-of-stream checks. A run suspended mid-flight (for a checkpoint) has
// open transfers and busy machines by design, so Finish would report false
// positives; Current is the honest verdict on the streamed prefix.
func (c *Checker) Current() []Violation { return c.violations }

// Total returns the number of violations detected, including any beyond
// the retained list.
func (c *Checker) Total() int { return c.total }

// Package trace is the structured event stream of a simulated run: every
// scheduling decision, transfer, compute interval, probe, outage episode,
// autoscale action and delivery is emitted as a typed Event through a
// Tracer. The stream serves three consumers:
//
//   - sinks (an in-memory Recorder, a JSONL exporter, a Chrome trace-event
//     exporter for chrome://tracing / Perfetto), and
//   - an independent SLA auditor (audit.go) that folds the stream, live or
//     recorded, and recomputes the paper's metrics without trusting the
//     engine's own accounting.
//
// Performance contract: emitters compile the tracer into a Mask once per
// run (MaskFor) and guard every emit point with a single bit test, so with
// tracing off — or with only narrow-interest sinks attached — the hot path
// pays no event construction, no interface call, and no allocation. A nil
// Tracer compiles to the zero mask and disables tracing entirely; sinks
// that consume a subset of event types declare it via Interests. Events
// are flat value structs; emitting them allocates only inside sinks that
// retain them.
package trace

// EventType identifies what happened.
type EventType uint8

// The event taxonomy. One run emits, in rough lifecycle order per job:
// JobArrived → (Chunked…) → PlacementDecided → either ComputeStart/End on
// the IC, or UploadStart/End → ComputeStart/End → DownloadStart/End on an
// EC — then JobDelivered. RunConfigured opens the stream;
// ProbeCompleted, OutageStart/End, AutoscaleBoot/Drain and Rescheduled
// interleave as the run unfolds.
const (
	// RunConfigured opens the stream with the run's cluster shape so an
	// auditor can recompute utilization denominators from the stream alone.
	RunConfigured EventType = iota
	// JobArrived marks one original workload job entering the system.
	JobArrived
	// Chunked marks one chunk created from an oversized parent job.
	Chunked
	// PlacementDecided records a scheduler decision with its rationale.
	PlacementDecided
	// UploadStart marks a bursted job entering the upload stage (queue wait
	// included); UploadEnd marks its last byte landing at the EC.
	UploadStart
	UploadEnd
	// ComputeStart/ComputeEnd bracket one task occupying one machine.
	ComputeStart
	ComputeEnd
	// DownloadStart/DownloadEnd bracket the output's trip back from an EC.
	DownloadStart
	DownloadEnd
	// ProbeCompleted records one bandwidth probe and what it measured.
	ProbeCompleted
	// OutageStart/OutageEnd bracket a link throttling/outage episode.
	OutageStart
	OutageEnd
	// AutoscaleBoot marks an elastic EC machine coming online (rental
	// start); AutoscaleDrain marks one retiring (rental end).
	AutoscaleBoot
	AutoscaleDrain
	// Rescheduled records a Sec. IV-D move: an upload stolen back to the IC
	// or an idle-pull burst of queued IC work.
	Rescheduled
	// JobDelivered marks a finished output landing in the result queue.
	JobDelivered
	// MachineFailed marks a fault-injected machine loss: an EC VM revocation
	// (Fatal=true when the machine never returns) or an IC crash. If a task
	// was running it is aborted; a synthetic ComputeEnd precedes this event
	// so compute intervals always close.
	MachineFailed
	// MachineRestored marks a crashed (non-fatal) machine coming back.
	MachineRestored
	// TransferStalled marks a transfer freezing at zero rate; if it does not
	// finish within the stall timeout a TransferAborted follows.
	TransferStalled
	// TransferAborted marks a stalled transfer being killed; the job enters
	// the recovery path.
	TransferAborted
	// JobRetried records a recovered job re-entering the pipeline: To="EC"
	// with Gated=true when the retry re-passed the slack rule, To="IC" for an
	// IC resubmit after a crash, Gated=false for a download-phase retry.
	JobRetried
	// JobFellBack records a recovered job abandoning the EC for the IC after
	// exhausting retries or losing every EC machine.
	JobFellBack
	// RentalStarted marks an EC machine going on the rental clock at Rate —
	// at run start for the initial fleet (and remote-site fleets), or when
	// an autoscale boot lands. Only priced runs emit it.
	RentalStarted
	// RentalEnded marks a rental closing — autoscale drain, fatal
	// revocation, or the run-end close-out — carrying the billed Amount
	// (the span rounded up to whole billing intervals at the rental's
	// rate) and the running rental Total.
	RentalEnded
	// CostAccrued records one admitted burst's committed charge: Amount is
	// the prepaid reservation for the job's projected EC occupancy, Total
	// the monotone committed spend the budget gate bounds.
	CostAccrued
	// PlacementConflict records a sharded scheduling decision losing the
	// commit phase: another shard claimed the same machine slot (Machine set)
	// or the EC budget was exhausted by earlier commits (Gated=true). The job
	// re-enters the next placement round; a PlacementDecided always follows.
	PlacementConflict
	// PlacementRetried marks a conflict loser entering a re-placement round
	// against a refreshed snapshot; Attempt is the 1-based retry round.
	PlacementRetried

	numEventTypes // sentinel
)

var eventTypeNames = [numEventTypes]string{
	RunConfigured:     "RunConfigured",
	JobArrived:        "JobArrived",
	Chunked:           "Chunked",
	PlacementDecided:  "PlacementDecided",
	UploadStart:       "UploadStart",
	UploadEnd:         "UploadEnd",
	ComputeStart:      "ComputeStart",
	ComputeEnd:        "ComputeEnd",
	DownloadStart:     "DownloadStart",
	DownloadEnd:       "DownloadEnd",
	ProbeCompleted:    "ProbeCompleted",
	OutageStart:       "OutageStart",
	OutageEnd:         "OutageEnd",
	AutoscaleBoot:     "AutoscaleBoot",
	AutoscaleDrain:    "AutoscaleDrain",
	Rescheduled:       "Rescheduled",
	JobDelivered:      "JobDelivered",
	MachineFailed:     "MachineFailed",
	MachineRestored:   "MachineRestored",
	TransferStalled:   "TransferStalled",
	TransferAborted:   "TransferAborted",
	JobRetried:        "JobRetried",
	JobFellBack:       "JobFellBack",
	RentalStarted:     "RentalStarted",
	RentalEnded:       "RentalEnded",
	CostAccrued:       "CostAccrued",
	PlacementConflict: "PlacementConflict",
	PlacementRetried:  "PlacementRetried",
}

// String names the event type.
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return "Unknown"
}

// MarshalText renders the type as its name (used by the JSONL exporter).
func (t EventType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses an event-type name.
func (t *EventType) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range eventTypeNames {
		if n == s {
			*t = EventType(i)
			return nil
		}
	}
	return &UnknownEventTypeError{Name: s}
}

// UnknownEventTypeError reports an unrecognized type name in a stream.
type UnknownEventTypeError struct{ Name string }

func (e *UnknownEventTypeError) Error() string {
	return "trace: unknown event type " + e.Name
}

// Event is one flat record. Only the fields relevant to the Type are set;
// the rest stay zero and are omitted from JSONL output. Sentinel -1 is used
// where the zero value is meaningful (Seq, JobID, Parent, Machine).
type Event struct {
	Type EventType `json:"type"`
	// T is the virtual time the event took effect. Outage episodes are
	// detected lazily at the next link activity, so their events may appear
	// slightly out of T order in the stream; consumers that need monotonic
	// time should sort by T.
	T float64 `json:"t"`

	// Job identity (JobArrived, Chunked, PlacementDecided, transfers,
	// Rescheduled, JobDelivered). Seq is the result-queue position, assigned
	// at placement time; -1 before placement.
	JobID  int `json:"job,omitempty"`
	Seq    int `json:"seq,omitempty"`
	Batch  int `json:"batch,omitempty"`
	Parent int `json:"parent,omitempty"` // Chunked: the job that was split

	// Placement and delivery.
	Where string `json:"where,omitempty"` // "IC" or "EC"
	Site  int    `json:"site,omitempty"`  // 0 = primary EC, 1+k = remote site k

	// Decision rationale (PlacementDecided, Rescheduled to EC). EstEC is the
	// estimated EC round-trip completion offset from T; Threshold is what it
	// was admitted against (the slack for Op/SIBS, the estimated IC finish
	// for Greedy). Gated is true when the decision came from an
	// EstEC-vs-Threshold comparison the auditor can verify.
	EstProc   float64 `json:"estProc,omitempty"`
	EstEC     float64 `json:"estEC,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Gated     bool    `json:"gated,omitempty"`

	// Payload sizes and ground truth carried for the auditor.
	Bytes       int64   `json:"bytes,omitempty"`
	OutputBytes int64   `json:"outputBytes,omitempty"`
	Arrival     float64 `json:"arrival,omitempty"`
	StdSeconds  float64 `json:"stdSeconds,omitempty"`

	// Compute location (ComputeStart/End).
	Cluster string `json:"cluster,omitempty"`
	Machine int    `json:"machine,omitempty"`

	// Network (transfers, probes, outages). BW is the achieved or measured
	// bandwidth in bytes/sec.
	Link string  `json:"link,omitempty"`
	BW   float64 `json:"bw,omitempty"`

	// Fleet size after an autoscale action.
	Fleet int `json:"fleet,omitempty"`

	// Rescheduled: the move direction ("EC"→"IC" for steal-back).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`

	// Fault and recovery detail. Fatal marks a MachineFailed that permanently
	// removes the machine (spot revocation); Attempt is the 1-based retry
	// count on JobRetried/JobFellBack.
	Fatal   bool `json:"fatal,omitempty"`
	Attempt int  `json:"attempt,omitempty"`

	// Run shape (RunConfigured).
	ICMachines int     `json:"icMachines,omitempty"`
	ECMachines int     `json:"ecMachines,omitempty"`
	ECSpeed    float64 `json:"ecSpeed,omitempty"`
	Autoscale  bool    `json:"autoscale,omitempty"`
	Scheduler  string  `json:"scheduler,omitempty"`
	// LinkBWCeiling is the highest per-transfer bandwidth the run's thread
	// model allows at any thread count (max over n of limit(n)); 0 when the
	// emitter predates the field. Invariant checkers bound every observed
	// transfer bandwidth by it.
	LinkBWCeiling float64 `json:"linkBWCeiling,omitempty"`

	// Cost accounting (RentalStarted/RentalEnded/CostAccrued, plus Budget
	// and BillingSec on RunConfigured so auditors can replay pricing from
	// the stream alone). Rate is $/machine-hour; Amount is the event's
	// billed or committed charge and Total the corresponding running sum.
	Rate       float64 `json:"rate,omitempty"`
	Amount     float64 `json:"amount,omitempty"`
	Total      float64 `json:"total,omitempty"`
	Budget     float64 `json:"budget,omitempty"`
	BillingSec float64 `json:"billingSec,omitempty"`

	// Sharded scheduling (PlacementDecided/PlacementConflict/
	// PlacementRetried in sharded rounds). Shard is 1-based so 0 means
	// "monolithic path" and stays out of JSONL; Epoch is the snapshot epoch
	// the decision was committed (or rejected) against, monotone over a run.
	Shard int `json:"shard,omitempty"`
	Epoch int `json:"epoch,omitempty"`
}

// Tracer receives the event stream. Implementations must not retain
// pointers into engine state (events are plain values). Tracers are called
// synchronously from the single-threaded simulation loop, so they need no
// locking of their own.
type Tracer interface {
	Emit(ev Event)
}

// Multi fans one stream out to several sinks. Nil sinks are skipped.
func Multi(sinks ...Tracer) Tracer {
	var keep []Tracer
	for _, s := range sinks {
		if s != nil {
			keep = append(keep, s)
		}
	}
	switch len(keep) {
	case 0:
		return nil
	case 1:
		return keep[0]
	}
	return multiTracer(keep)
}

type multiTracer []Tracer

func (m multiTracer) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// InterestMask unions the interests of the fanned-out sinks.
func (m multiTracer) InterestMask() Mask {
	var u Mask
	for _, s := range m {
		u |= MaskFor(s)
	}
	return u
}

// Mask is a bitset over event types: bit t is set when type t is wanted.
// Emitters test the mask before materializing an Event struct, so a sink
// that declares a narrow interest (or no tracer at all) turns tracing into
// a single branch on the hot path.
type Mask uint32

// Mask must have one bit per event type; this fails to compile when the
// enum outgrows uint32.
var _ [32 - int(numEventTypes)]struct{}

// MaskOf builds a mask from explicit event types.
func MaskOf(types ...EventType) Mask {
	var m Mask
	for _, t := range types {
		m |= 1 << t
	}
	return m
}

// AllEvents is the mask wanting every event type — the conservative
// default for sinks that do not declare interests.
func AllEvents() Mask { return Mask(1)<<numEventTypes - 1 }

// Has reports whether the mask wants event type t.
func (m Mask) Has(t EventType) bool { return m&(1<<t) != 0 }

// Interests is optionally implemented by Tracers that consume only a
// subset of event types. The mask must be constant for the lifetime of the
// tracer: emitters compile it once per run, not per event.
type Interests interface {
	InterestMask() Mask
}

// MaskFor compiles the dispatch mask for a tracer: zero for nil (nothing
// listens), the declared mask for Interests implementations (including
// Multi fan-outs, which union their sinks), and AllEvents otherwise.
func MaskFor(t Tracer) Mask {
	switch tr := t.(type) {
	case nil:
		return 0
	case Interests:
		return tr.InterestMask()
	}
	return AllEvents()
}

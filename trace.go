package cloudburst

import (
	"io"

	"cloudburst/internal/trace"
)

// Tracing and auditing: a run can emit a structured event stream — every
// arrival, scheduling decision (with its rationale), transfer, compute
// interval, probe, outage episode, autoscale action and delivery — to any
// Tracer set on Options.Trace. The stream feeds three consumers: JSONL
// export for offline analysis, a Chrome trace-event export for
// chrome://tracing / Perfetto, and an independent SLA auditor
// (Options.Audit) that folds the events as they are emitted and recomputes
// the paper's metrics without trusting the engine's accounting. Tracing is
// strictly opt-in: with no tracer set, the simulation hot path pays
// nothing.

// Tracer receives the event stream of a run. Implementations are called
// synchronously from the single-threaded simulation loop.
type Tracer = trace.Tracer

// TraceEvent is one flat event record.
type TraceEvent = trace.Event

// TraceEventType identifies what a TraceEvent records.
type TraceEventType = trace.EventType

// TraceRecorder is an in-memory Tracer retaining every event. Attach one
// through Options.Trace to keep a run's events, for WriteChromeTrace or a
// later AuditTraceEvents; Options.Audit does not need one.
type TraceRecorder = trace.Recorder

// JSONLTracer streams events as one JSON object per line.
type JSONLTracer = trace.JSONLWriter

// Audit is the independent recomputation of a run's SLA metrics from its
// event stream, including per-burst slack verification.
type Audit = trace.Audit

// AuditOptions tunes AuditTraceEvents.
type AuditOptions = trace.AuditOptions

// SlackCheck is the audit of one bursted job's admission.
type SlackCheck = trace.SlackCheck

// NewTraceRecorder returns an empty in-memory tracer.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NewJSONLTracer returns a tracer writing one JSON object per line to w
// (buffered; call Close or Flush when the run finishes).
func NewJSONLTracer(w io.Writer) *JSONLTracer { return trace.NewJSONLWriter(w) }

// MultiTracer fans one event stream out to several sinks (nils skipped).
func MultiTracer(sinks ...Tracer) Tracer { return trace.Multi(sinks...) }

// ReadTraceJSONL parses a stream written by a JSONLTracer back into events.
func ReadTraceJSONL(r io.Reader) ([]TraceEvent, error) { return trace.ReadJSONL(r) }

// WriteChromeTrace renders events as a Chrome trace-event JSON document
// (load it in chrome://tracing or https://ui.perfetto.dev): per-machine
// compute timelines, per-link transfer lanes, probe and decision instants,
// outage spans, and fleet/delivery counters.
func WriteChromeTrace(w io.Writer, events []TraceEvent) error {
	return trace.WriteChromeTrace(w, events)
}

// AuditTraceEvents replays any event stream — recorded in-process or read
// back from JSONL — and recomputes makespan, speedup, burst ratio,
// utilization and the OO series, verifying every burst's slack admission.
func AuditTraceEvents(events []TraceEvent, opt AuditOptions) (*Audit, error) {
	return trace.AuditEvents(events, opt)
}

package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Type: RunConfigured, T: 0, ICMachines: 2, ECMachines: 1, ECSpeed: 1, Scheduler: "Op"},
		{Type: JobArrived, T: 0, JobID: 0, Seq: -1, Arrival: 0, StdSeconds: 10, Bytes: 100, OutputBytes: 60},
		{Type: PlacementDecided, T: 0, JobID: 0, Seq: 0, Where: "EC", EstProc: 10, EstEC: 5, Threshold: 7, Gated: true, OutputBytes: 60},
		{Type: UploadStart, T: 0, JobID: 0, Seq: 0, Link: "upload", Bytes: 100},
		{Type: UploadEnd, T: 1, JobID: 0, Seq: 0, Link: "upload", Bytes: 100, BW: 100},
		{Type: ComputeStart, T: 1, Cluster: "ec", Machine: 0, JobID: 0},
		{Type: ComputeEnd, T: 3, Cluster: "ec", Machine: 0, JobID: 0},
		{Type: DownloadStart, T: 3, JobID: 0, Seq: 0, Link: "download", Bytes: 60},
		{Type: DownloadEnd, T: 4, JobID: 0, Seq: 0, Link: "download", Bytes: 60, BW: 60},
		{Type: ProbeCompleted, T: 2, Link: "uplink", BW: 1234.5},
		{Type: JobDelivered, T: 4, JobID: 0, Seq: 0, Where: "EC", Arrival: 0, OutputBytes: 60},
	}
}

func TestEventTypeStringRoundTrip(t *testing.T) {
	for i := EventType(0); i < numEventTypes; i++ {
		name := i.String()
		if name == "" || name == "Unknown" {
			t.Fatalf("event type %d has no name", i)
		}
		var back EventType
		if err := back.UnmarshalText([]byte(name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back != i {
			t.Fatalf("%s parsed to %d, want %d", name, back, i)
		}
	}
	var bad EventType
	err := bad.UnmarshalText([]byte("NoSuchEvent"))
	if err == nil {
		t.Fatal("unknown event type name did not error")
	}
	var ute *UnknownEventTypeError
	if !isUnknownTypeErr(err, &ute) || ute.Name != "NoSuchEvent" {
		t.Fatalf("wrong error: %v", err)
	}
}

func isUnknownTypeErr(err error, out **UnknownEventTypeError) bool {
	u, ok := err.(*UnknownEventTypeError)
	if ok {
		*out = u
	}
	return ok
}

func TestJSONLRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(events) {
		t.Fatalf("wrote %d lines, want %d", got, len(events))
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("read %d events, want %d", len(back), len(events))
	}
	for i := range events {
		if back[i] != events[i] {
			t.Fatalf("event %d changed in round trip:\n  out %+v\n  in  %+v", i, events[i], back[i])
		}
	}
}

func TestJSONLOmitsZeroFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	w.Emit(Event{Type: ProbeCompleted, T: 2, Link: "uplink", BW: 10})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	for _, forbidden := range []string{"cluster", "estEC", "icMachines", "where"} {
		if strings.Contains(line, forbidden) {
			t.Fatalf("zero field %q serialized: %s", forbidden, line)
		}
	}
	for _, required := range []string{`"type":"ProbeCompleted"`, `"t":2`, `"link":"uplink"`} {
		if !strings.Contains(line, required) {
			t.Fatalf("missing %q in %s", required, line)
		}
	}
}

func TestRecorderAndMulti(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	m := Multi(nil, a, nil, b)
	for _, ev := range sampleEvents() {
		m.Emit(ev)
	}
	if a.Len() != b.Len() || a.Len() != len(sampleEvents()) {
		t.Fatalf("fan-out mismatch: %d vs %d", a.Len(), b.Len())
	}
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no sinks should be nil")
	}
	if Multi(a) != Tracer(a) {
		t.Fatal("Multi of one sink should return it unchanged")
	}
	// Events keeps emission order even when it is not chronological
	// (outage episodes are detected lazily).
	r := NewRecorder()
	r.Emit(Event{Type: OutageStart, T: 5})
	r.Emit(Event{Type: OutageEnd, T: 3})
	if got := r.Events(); got[0].T != 5 || got[1].T != 3 {
		t.Fatal("Events() must preserve emission order")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	events := append(sampleEvents(),
		Event{Type: OutageStart, T: 1.5, Link: "uplink"},
		Event{Type: OutageEnd, T: 2.5, Link: "uplink"},
		Event{Type: AutoscaleBoot, T: 2, Cluster: "ec", Machine: 1, Fleet: 2},
	)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	count := func(ph, name string) int {
		n := 0
		for _, ev := range doc.TraceEvents {
			if ev["ph"] == ph && (name == "" || ev["name"] == name) {
				n++
			}
		}
		return n
	}
	if count("X", "job 0") != 3 { // compute + upload + download spans
		t.Fatalf("want 3 job-0 spans, got %d", count("X", "job 0"))
	}
	if count("X", "outage") != 1 {
		t.Fatal("outage span missing")
	}
	if count("C", "EC fleet") != 1 || count("C", "delivered") != 1 {
		t.Fatal("counter tracks missing")
	}
	if count("i", "probe") != 1 {
		t.Fatal("probe instant missing")
	}
	if count("M", "") == 0 {
		t.Fatal("no metadata (process/thread names) emitted")
	}
	// Compute span duration must be scaled to microseconds.
	for _, ev := range doc.TraceEvents {
		if ev["cat"] == "compute" {
			if ev["dur"].(float64) != 2e6 {
				t.Fatalf("compute dur %v, want 2e6 µs", ev["dur"])
			}
		}
	}
}

func TestChromeLanePacking(t *testing.T) {
	spans := []span{
		{start: 0, end: 10},
		{start: 5, end: 15}, // overlaps the first → second lane
		{start: 12, end: 20},
	}
	lanes := assignLanes(spans)
	if len(lanes) != 2 {
		t.Fatalf("want 2 lanes, got %d", len(lanes))
	}
	if len(lanes[0]) != 2 || len(lanes[1]) != 1 {
		t.Fatalf("bad packing: %v", lanes)
	}
}

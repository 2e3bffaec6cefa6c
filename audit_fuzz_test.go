package cloudburst

// Fuzz coverage for the auditor on decoded streams: whatever the trace
// JSONL reader accepts, AuditTraceEvents must return, without panicking
// and without work sized by the stream's numbers rather than its length.

import (
	"bytes"
	"testing"
)

func FuzzAuditJSONL(f *testing.F) {
	// Seed corpus: a recorded Op run, and crafted streams whose timestamps
	// or fleet size once drove the auditor's work without bound.
	var buf bytes.Buffer
	jsonl := NewJSONLTracer(&buf)
	o := fastOpts(OrderPreserving)
	o.Batches, o.MeanJobsPerBatch, o.Trace = 2, 3, jsonl
	if _, err := Run(o); err != nil {
		f.Fatal(err)
	}
	if err := jsonl.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	const cfg = `{"type":"RunConfigured","icMachines":1,"ecMachines":1}` + "\n"
	for _, s := range []string{
		cfg + `{"type":"JobDelivered","t":1e8}`,
		cfg + `{"type":"JobDelivered","t":1e19}`,
		cfg + `{"type":"JobDelivered","t":1e19,"arrival":1e19}`,
		`{"type":"RunConfigured","ecMachines":1000000000,"autoscale":true}` + "\n" +
			`{"type":"JobDelivered","t":5,"where":"EC"}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadTraceJSONL(bytes.NewReader(data))
		if err != nil || len(evs) == 0 {
			return
		}
		if _, err := AuditTraceEvents(evs, AuditOptions{}); err != nil {
			t.Fatalf("audit of %d decoded events: %v", len(evs), err)
		}
	})
}

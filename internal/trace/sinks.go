package trace

import (
	"bufio"
	"encoding/json"
	"io"
)

// Recorder is an in-memory sink: it retains every event in emission order,
// for the Chrome exporter or a later AuditEvents. The Auditor folds a live
// stream without one.
type Recorder struct {
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Emit implements Tracer.
func (r *Recorder) Emit(ev Event) { r.events = append(r.events, ev) }

// Len returns the number of recorded events.
func (r *Recorder) Len() int { return len(r.events) }

// Events returns a copy of the recorded events in emission order.
func (r *Recorder) Events() []Event {
	return append([]Event(nil), r.events...)
}

// JSONLWriter streams events as one JSON object per line. Writes are
// buffered; call Close (or Flush) when the run finishes. The first write
// error is sticky and reported by Close/Err; later events are dropped.
type JSONLWriter struct {
	w   *bufio.Writer
	c   io.Closer // non-nil when the sink owns the underlying file
	err error
}

// NewJSONLWriter wraps w. If w is also an io.Closer, Close closes it.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	j := &JSONLWriter{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		j.c = c
	}
	return j
}

// Emit implements Tracer.
func (j *JSONLWriter) Emit(ev Event) {
	if j.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(b); err != nil {
		j.err = err
		return
	}
	j.err = j.w.WriteByte('\n')
}

// Err returns the first write error, if any.
func (j *JSONLWriter) Err() error { return j.err }

// Flush drains the buffer to the underlying writer.
func (j *JSONLWriter) Flush() error {
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// Close flushes and, when the sink owns the writer, closes it.
func (j *JSONLWriter) Close() error {
	ferr := j.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); ferr == nil {
			ferr = cerr
		}
	}
	return ferr
}

// ReadJSONL parses a JSONL stream back into events — the inverse of
// JSONLWriter, used to audit a stream written by an earlier run.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

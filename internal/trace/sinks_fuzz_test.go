package trace

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzReadJSONL feeds the trace reader arbitrary bytes: it must never
// panic, and every stream it accepts must re-encode through JSONLWriter and
// read back equal.
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, ev := range sampleEvents() {
		w.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("\n\n{\"type\":\"JobArrived\",\"t\":-0,\"job\":3}\n"))
	f.Add([]byte(`{"type":"NoSuchEvent","t":1}`))
	f.Add([]byte(`{"type":7}`))
	f.Add([]byte(`{"TYPE":"RunConfigured","t":1e400}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := NewJSONLWriter(&out)
		for _, ev := range evs {
			w.Emit(ev)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := ReadJSONL(&out)
		if errors.Is(err, bufio.ErrTooLong) {
			return // escaping grew a line near the 1 MB cap past it
		}
		if err != nil {
			t.Fatalf("read back the re-encoded stream: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, evs) {
			t.Fatalf("round trip changed the stream:\nread  %+v\nback  %+v", evs, back)
		}
	})
}

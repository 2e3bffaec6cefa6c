package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
)

// FuzzReadManifest feeds the manifest reader arbitrary bytes: it must never
// panic, and a valid prefix followed by a torn tail — a proper prefix of
// one more row, as a crash mid-append leaves it — must yield exactly the
// prefix's entries.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte(`{"fp":"v1|sched=Op|bucket=small","metrics":{"makespan":1200.5,"jobs":90}}`+"\n"), uint16(17))
	f.Add([]byte(`{"fp":"a","metrics":{}}`+"\n"+`{"fp":"b","metrics":{"mak`), uint16(0))
	f.Add([]byte("not json\n{\"fp\":\"\"}\n\n{\"FP\":\"upper\",\"metrics\":{\"costBudget\":-0}}\n"), uint16(3))
	f.Add([]byte(`{"fp":"x","metrics":{"speedup":1e400}}`), uint16(9))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		var prefix []ManifestEntry
		if err := ReadManifest(bytes.NewReader(data), func(e ManifestEntry) { prefix = append(prefix, e) }); err != nil {
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("ReadManifest: %v", err)
			}
			return
		}
		for _, e := range prefix {
			if e.FP == "" {
				t.Fatal("an entry without a fingerprint was accepted")
			}
		}

		// Re-encode what was read as a valid manifest, then tear one more row
		// anywhere short of its end.
		var buf bytes.Buffer
		for _, e := range prefix {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("marshal %+v: %v", e, err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		row, err := json.Marshal(ManifestEntry{FP: string(data), Metrics: Metrics{Makespan: float64(cut)}})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(row[:int(cut)%len(row)])

		var got []ManifestEntry
		if err := ReadManifest(&buf, func(e ManifestEntry) { got = append(got, e) }); err != nil {
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("ReadManifest of a re-encoded prefix: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(got, prefix) {
			t.Fatalf("prefix + torn tail read back %d entries %+v, want the prefix's %d %+v", len(got), got, len(prefix), prefix)
		}
	})
}

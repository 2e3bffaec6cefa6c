package trace

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fmtFingerprint is the fmt-based fold Emit replaced: the same line format
// the golden tests hash, hashed with the same FNV-64a constants.
func fmtFingerprint(h uint64, ev Event) uint64 {
	line := fmt.Appendf(nil, "%d|%d|%d|%d|%s|%d|%s|%s|%s|%d|%d\n",
		ev.Type, ev.JobID, ev.Seq, ev.Batch, ev.Where, ev.Site,
		ev.Link, ev.From, ev.To, ev.Bytes, ev.OutputBytes)
	for _, c := range line {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// randomEvent draws an event over the hashed fields' full ranges: negative
// and extreme integers, every EventType value, and strings holding the '|'
// separator and multi-byte runes.
func randomEvent(g *rand.Rand) Event {
	ints := func() int64 {
		switch g.Intn(5) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return int64(g.Intn(21) - 10)
		default:
			return g.Int63() - g.Int63()
		}
	}
	words := []string{"", "IC", "EC", "upload", "download2", "a|b", "|", "ünïcødé", "雲", "\x00\xff"}
	str := func() string { return words[g.Intn(len(words))] + words[g.Intn(len(words))] }
	return Event{
		Type:  EventType(g.Intn(256)),
		JobID: int(ints()), Seq: int(ints()), Batch: int(ints()), Site: int(ints()),
		Where: str(), Link: str(), From: str(), To: str(),
		Bytes: ints(), OutputBytes: ints(),
	}
}

// TestFingerprintMatchesFmt is a property test with fmt as the oracle: the
// hand-written line must hash exactly like the fmt format string, event by
// event, across random events.
func TestFingerprintMatchesFmt(t *testing.T) {
	g := rand.New(rand.NewSource(1))
	f := NewFingerprint()
	want := uint64(fnvOffset64)
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		ev := randomEvent(g)
		f.Emit(ev)
		want = fmtFingerprint(want, ev)
		if f.Sum64() != want {
			t.Fatalf("event %d %+v: fingerprint %016x, fmt oracle %016x", i, ev, f.Sum64(), want)
		}
	}
	if f.Events() != uint64(n) {
		t.Fatalf("Events() = %d, want %d", f.Events(), n)
	}
}

// TestFingerprintEmitAllocationFree pins a warm Emit at zero allocations:
// the serve fingerprint folds every event of an always-on run.
func TestFingerprintEmitAllocationFree(t *testing.T) {
	f := NewFingerprint()
	ev := Event{Type: JobDelivered, JobID: 12345, Seq: 678, Batch: 9, Where: "EC", Site: 1,
		Link: "download1", Bytes: 1 << 30, OutputBytes: -1}
	f.Emit(ev) // grow the line buffer
	if allocs := testing.AllocsPerRun(100, func() { f.Emit(ev) }); allocs != 0 {
		t.Fatalf("warm Emit allocates %v times, want 0", allocs)
	}
}

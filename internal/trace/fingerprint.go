package trace

import "strconv"

// FNV-64a constants, inlined rather than taken from hash/fnv because the
// standard hash hides its running state: a checkpointed stream must resume
// hashing from a saved sum, which needs the state to be a plain uint64.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Fingerprint is a Tracer that folds the discrete fields of every event
// into one rolling FNV-64a hash — the same field set the golden
// determinism tests hash, so two runs with equal fingerprints fired the
// same trace. Float fields (times, bandwidths) are deliberately excluded:
// the fingerprint certifies the discrete trajectory, and the golden tests
// separately pin exact float behaviour.
//
// The hash state is one uint64, so a fingerprint can be checkpointed
// mid-stream and resumed later: the continued hash over the stream's tail
// equals an unbroken hash over the whole stream. That property is what
// lets a split (checkpoint/restore) run prove bit-identity with an
// unsplit one.
type Fingerprint struct {
	h   uint64
	n   uint64
	buf []byte
}

// NewFingerprint returns an empty rolling hash.
func NewFingerprint() *Fingerprint {
	return &Fingerprint{h: fnvOffset64}
}

// ResumeFingerprint rebuilds a fingerprint from a checkpointed (sum,
// events) pair, continuing the stream where the saved run left off.
func ResumeFingerprint(sum uint64, events uint64) *Fingerprint {
	return &Fingerprint{h: sum, n: events}
}

// Emit implements Tracer. The hashed line is the golden tests'
// "%d|%d|%d|%d|%s|%d|%s|%s|%s|%d|%d\n" over Type, JobID, Seq, Batch,
// Where, Site, Link, From, To, Bytes and OutputBytes (%d prints Type's
// number, not its name), written without fmt.
func (f *Fingerprint) Emit(ev Event) {
	b := strconv.AppendUint(f.buf[:0], uint64(ev.Type), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(ev.JobID), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(ev.Seq), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(ev.Batch), 10)
	b = append(append(b, '|'), ev.Where...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(ev.Site), 10)
	b = append(append(b, '|'), ev.Link...)
	b = append(append(b, '|'), ev.From...)
	b = append(append(b, '|'), ev.To...)
	b = append(b, '|')
	b = strconv.AppendInt(b, ev.Bytes, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, ev.OutputBytes, 10)
	f.buf = append(b, '\n')
	h := f.h
	for _, c := range f.buf {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	f.h = h
	f.n++
}

// Sum64 returns the current hash.
func (f *Fingerprint) Sum64() uint64 { return f.h }

// Events returns how many events were folded in, counting any a resumed
// fingerprint inherited.
func (f *Fingerprint) Events() uint64 { return f.n }

package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"slices"
	"time"

	"cloudburst"
	"cloudburst/internal/engine"
	"cloudburst/internal/sweep"
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of xs, 0 < q <= 1, or NaN
// when xs is empty.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median returns the middle of xs, averaging the two middle values of an
// even count, or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the default
// (exclusive) method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match the ones computed from saved results.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := max(1, min(i*m/4, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median: the run-to-run noise a bound has to clear.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// digest is an FNV-1a hash over result fields, fed in op order.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func (d *digest) ints(vs ...int) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) floats(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// outcome is the part of a finite run's result the digests cover: the
// fields cloudburst.Report, sweep.Metrics and engine.Result all carry, so
// the public path and the engine-level path hash the same values.
type outcome struct {
	Makespan, Speedup, BurstRatio, ICUtil, ECUtil, TSeq  float64
	Jobs, Chunks, Conflicts, Replacements, CommitRetries int
}

func (d *digest) outcome(o outcome) {
	d.floats(o.Makespan, o.Speedup, o.BurstRatio, o.ICUtil, o.ECUtil, o.TSeq)
	d.ints(o.Jobs, o.Chunks, o.Conflicts, o.Replacements, o.CommitRetries)
}

func reportOutcome(r *cloudburst.Report) outcome {
	return outcome{r.Makespan, r.Speedup, r.BurstRatio, r.ICUtil, r.ECUtil, r.TSeq,
		r.Jobs, r.ChunksCreated, r.Conflicts, r.Replacements, r.CommitRetries}
}

func metricsOutcome(m sweep.Metrics) outcome {
	return outcome{m.Makespan, m.Speedup, m.BurstRatio, m.ICUtil, m.ECUtil, m.TSeq,
		m.Jobs, m.Chunks, m.Conflicts, m.Replacements, m.CommitRetries}
}

func resultOutcome(r *engine.Result) outcome {
	return outcome{r.Makespan, r.Speedup, r.BurstRatio, r.ICUtil, r.ECUtil, r.TSeq,
		r.Jobs, r.ChunksCreated, r.Conflicts, r.Replacements, r.CommitRetries}
}

// outcomeDigest is one finite run's digest.
func outcomeDigest(o outcome) uint64 {
	d := newDigest()
	d.outcome(o)
	return d.sum()
}

// serveDigest is one streaming run's digest: its trace fingerprint, the
// jobs it admitted and the windows it flushed.
func serveDigest(fingerprint uint64, fed, windows int) uint64 {
	d := newDigest()
	d.u64(fingerprint)
	d.ints(fed, windows)
	return d.sum()
}

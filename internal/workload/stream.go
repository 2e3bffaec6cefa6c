package workload

import (
	"fmt"

	"cloudburst/internal/job"
	"cloudburst/internal/stats"
)

// Source is an open-ended batch arrival process: each call produces the
// next batch, lazily, with job IDs drawn from the caller's allocator so
// stream jobs and scheduler-created chunks share one ID space. A Source
// never has to end; ok=false signals a finite stream's exhaustion.
//
// Sources are deterministic: a fresh Source built from the same
// configuration yields the same batch sequence, which is what makes the
// engine's replay-based checkpoint/restore possible.
type Source interface {
	NextBatch(ids job.IDAllocator) (b Batch, ok bool)
}

// RateFunc maps virtual time to the instantaneous batch-size rate λ(t)
// (mean jobs per batch) of a non-homogeneous Poisson arrival process.
type RateFunc func(t float64) float64

// BurstConfig parameterizes the flash-crowd modulation of a Stream: a
// two-state Markov-modulated Poisson process that multiplies the base rate
// by Factor while a burst is active. Sojourn times in both states are
// exponential, so bursts arrive at unpredictable (but seeded) instants and
// last unpredictable (but seeded) lengths — the transient crowds of
// CloudCoaster-style workloads.
type BurstConfig struct {
	Factor       float64 // rate multiplier while bursting (default 6)
	MeanDuration float64 // mean burst length in seconds (default 900)
	MeanGap      float64 // mean quiet time between bursts (default 7200)
}

func (b BurstConfig) withDefaults() BurstConfig {
	if b.Factor == 0 {
		b.Factor = 6
	}
	if b.MeanDuration == 0 {
		b.MeanDuration = 900
	}
	if b.MeanGap == 0 {
		b.MeanGap = 7200
	}
	return b
}

// StreamConfig parameterizes a Stream. Zero fields take the same paper
// defaults as the finite Config; Rate defaults to DiurnalDemand over
// BaseJobsPerBatch, wiring the day-shape into every streaming run.
type StreamConfig struct {
	Bucket           Bucket
	Interval         float64 // seconds between batches (default 180)
	BaseJobsPerBatch float64 // base Poisson λ per batch (default 15)
	// Rate is the instantaneous λ(t); nil defaults to
	// DiurnalDemand(BaseJobsPerBatch, t).
	Rate RateFunc
	// Burst, when non-nil, arms MMPP flash-crowd modulation on top of Rate.
	Burst *BurstConfig
	Seed  int64
}

func (c StreamConfig) withDefaults() StreamConfig {
	if c.Interval == 0 {
		c.Interval = 180
	}
	if c.BaseJobsPerBatch == 0 {
		c.BaseJobsPerBatch = 15
	}
	if c.Burst != nil {
		b := c.Burst.withDefaults()
		c.Burst = &b
	}
	return c
}

func (c StreamConfig) validate() error {
	switch {
	case c.Interval <= 0:
		return fmt.Errorf("workload: non-positive batch interval %v", c.Interval)
	case c.BaseJobsPerBatch < 0:
		return fmt.Errorf("workload: negative base batch size %v", c.BaseJobsPerBatch)
	}
	if b := c.Burst; b != nil {
		switch {
		case b.Factor < 1:
			return fmt.Errorf("workload: burst factor %v below 1", b.Factor)
		case b.MeanDuration <= 0:
			return fmt.Errorf("workload: non-positive burst duration %v", b.MeanDuration)
		case b.MeanGap <= 0:
			return fmt.Errorf("workload: non-positive burst gap %v", b.MeanGap)
		}
	}
	return nil
}

// Stream is an endless batch source: a non-homogeneous Poisson process
// whose rate follows Rate(t) — by default the diurnal day-shape — with
// optional MMPP flash-crowd bursts layered on top. It is the general
// arrival process; a Generator's finite workload is its steady case. It
// draws its jobs through the same synthesizer from the same four streams
// and adds only λ(t) and a fifth stream for the burst phases. Unlike the
// finite Generator it permits empty batches: a quiet overnight interval
// genuinely produces nothing, which is exactly what rolling-window metrics
// must tolerate.
type Stream struct {
	cfg StreamConfig
	synth
	burstRNG stats.RNG

	next int     // next batch index
	at   float64 // next batch arrival time

	// MMPP phase: bursting until / quiet until burstEdge.
	burstOn   bool
	burstEdge float64
}

// NewStream validates the config and returns the arrival process, with the
// synthesizer's four streams forked from the seed exactly like the finite
// Generator's and the burst stream forked after them.
func NewStream(cfg StreamConfig) (*Stream, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := stats.NewRNG(cfg.Seed)
	s := &Stream{cfg: cfg}
	s.bucket, s.truth = cfg.Bucket, NewTruthModel(defaultNoiseCV)
	s.fork(root)
	root.ForkInto(&s.burstRNG)
	if cfg.Burst != nil {
		s.burstEdge = s.burstRNG.Exponential(cfg.Burst.MeanGap)
	}
	return s, nil
}

// MustNewStream is NewStream panicking on error (for tests/examples).
func MustNewStream(cfg StreamConfig) *Stream {
	s, err := NewStream(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// rate evaluates λ(t): the configured Rate (or the diurnal default) times
// the MMPP burst multiplier for the current phase.
func (s *Stream) rate(t float64) float64 {
	var lambda float64
	if s.cfg.Rate != nil {
		lambda = s.cfg.Rate(t)
	} else {
		lambda = DiurnalDemand(s.cfg.BaseJobsPerBatch, t)
	}
	if lambda < 0 {
		lambda = 0
	}
	if b := s.cfg.Burst; b != nil {
		// Advance the phase chain up to t: sojourns are exponential, drawn
		// lazily in order, so the burst schedule is a pure function of the
		// seed no matter when batches sample it.
		for s.burstEdge <= t {
			s.burstOn = !s.burstOn
			mean := b.MeanGap
			if s.burstOn {
				mean = b.MeanDuration
			}
			s.burstEdge += s.burstRNG.Exponential(mean)
		}
		if s.burstOn {
			lambda *= b.Factor
		}
	}
	return lambda
}

// NextBatch implements Source: it synthesizes the next batch of the
// process, allocating job IDs from ids. The stream never ends; ok is
// always true.
func (s *Stream) NextBatch(ids job.IDAllocator) (Batch, bool) {
	at := s.at
	index := s.next
	s.next++
	s.at += s.cfg.Interval
	return s.batch(index, at, s.rate(at), 0, ids), true
}

// SliceSource adapts a finite, pre-generated batch slice to the Source
// interface (job IDs are already assigned, so the allocator is unused
// except to keep chunk IDs clear of the workload's).
type SliceSource struct {
	batches []Batch
	next    int
}

// NewSliceSource wraps batches; NextBatch returns them in order and then
// reports exhaustion.
func NewSliceSource(batches []Batch) *SliceSource {
	return &SliceSource{batches: batches}
}

// NextBatch implements Source. Its first call bumps the allocator past the
// highest job ID of the whole slice: chunks minted while one batch is
// scheduled must not take IDs that later batches already carry.
func (s *SliceSource) NextBatch(ids job.IDAllocator) (Batch, bool) {
	if c, ok := ids.(*job.Counter); ok && s.next == 0 {
		maxID := -1
		for _, b := range s.batches {
			for _, j := range b.Jobs {
				maxID = max(maxID, j.ID)
			}
		}
		for c.Peek() <= maxID {
			c.NextID()
		}
	}
	if s.next >= len(s.batches) {
		return Batch{}, false
	}
	b := s.batches[s.next]
	s.next++
	return b, true
}

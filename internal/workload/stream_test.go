package workload

import (
	"testing"

	"cloudburst/internal/job"
)

// drain pulls n batches from a fresh stream built from cfg.
func drain(t *testing.T, cfg StreamConfig, n int) []Batch {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	ids := job.NewCounter(0)
	out := make([]Batch, 0, n)
	for i := 0; i < n; i++ {
		b, ok := s.NextBatch(ids)
		if !ok {
			t.Fatalf("stream ended at batch %d", i)
		}
		out = append(out, b)
	}
	return out
}

func TestStreamDeterministic(t *testing.T) {
	cfg := StreamConfig{Seed: 42, Burst: &BurstConfig{}}
	a := drain(t, cfg, 50)
	b := drain(t, cfg, 50)
	for i := range a {
		if a[i].At != b[i].At || len(a[i].Jobs) != len(b[i].Jobs) {
			t.Fatalf("batch %d differs: %v/%d jobs vs %v/%d jobs",
				i, a[i].At, len(a[i].Jobs), b[i].At, len(b[i].Jobs))
		}
		for k := range a[i].Jobs {
			x, y := a[i].Jobs[k], b[i].Jobs[k]
			if *x != *y {
				t.Fatalf("batch %d job %d differs: %+v vs %+v", i, k, x, y)
			}
		}
	}
}

func TestStreamBatchShape(t *testing.T) {
	batches := drain(t, StreamConfig{Seed: 1}, 40)
	ids := map[int]bool{}
	for i, b := range batches {
		if b.Index != i {
			t.Fatalf("batch %d has index %d", i, b.Index)
		}
		if want := float64(i) * 180; b.At != want {
			t.Fatalf("batch %d at t=%v, want %v", i, b.At, want)
		}
		for _, j := range b.Jobs {
			if j.BatchID != i || j.ArrivalTime != b.At {
				t.Fatalf("job %d mislabelled: batch %d at %v", j.ID, j.BatchID, j.ArrivalTime)
			}
			if ids[j.ID] {
				t.Fatalf("duplicate job ID %d", j.ID)
			}
			ids[j.ID] = true
		}
	}
}

// TestStreamDiurnalShape checks the default rate function follows the
// day-shape: business hours produce materially more jobs than the night.
func TestStreamDiurnalShape(t *testing.T) {
	// 48h of batches at the default 180 s interval.
	batches := drain(t, StreamConfig{Seed: 7}, 960)
	night, nightN := 0, 0
	peak, peakN := 0, 0
	for _, b := range batches {
		hour := int(b.At/3600) % 24
		switch {
		case hour < 6 || hour >= 21:
			night += len(b.Jobs)
			nightN++
		case hour >= 9 && hour < 17:
			peak += len(b.Jobs)
			peakN++
		}
	}
	nightRate := float64(night) / float64(nightN)
	peakRate := float64(peak) / float64(peakN)
	// True ratio is 0.3x vs 1.5x = 5; leave sampling slack.
	if peakRate < 3*nightRate {
		t.Fatalf("diurnal shape too flat: peak %.2f jobs/batch vs night %.2f", peakRate, nightRate)
	}
}

// TestStreamBurstsRaiseRate compares a bursty stream against its quiet
// twin: while a burst is active the arrival counts must be visibly larger.
func TestStreamBurstsRaiseRate(t *testing.T) {
	base := StreamConfig{Seed: 3, Rate: func(float64) float64 { return 3 }}
	burst := base
	burst.Burst = &BurstConfig{Factor: 8, MeanDuration: 3600, MeanGap: 3600}
	quiet := drain(t, base, 400)
	crowd := drain(t, burst, 400)
	qn, cn := 0, 0
	for i := range quiet {
		qn += len(quiet[i].Jobs)
		cn += len(crowd[i].Jobs)
	}
	// Bursts are active ~half the time at factor 8, so the bursty stream
	// should carry several times the quiet load.
	if cn < 2*qn {
		t.Fatalf("bursts had no effect: %d jobs with bursts vs %d without", cn, qn)
	}
}

func TestStreamZeroRateProducesEmptyBatches(t *testing.T) {
	batches := drain(t, StreamConfig{Seed: 9, Rate: func(float64) float64 { return 0 }}, 20)
	for _, b := range batches {
		if len(b.Jobs) != 0 {
			t.Fatalf("zero-rate batch %d has %d jobs", b.Index, len(b.Jobs))
		}
	}
}

func TestStreamConfigValidation(t *testing.T) {
	bad := []StreamConfig{
		{Interval: -1},
		{BaseJobsPerBatch: -1},
		{Burst: &BurstConfig{Factor: 0.5}},
		{Burst: &BurstConfig{MeanDuration: -1}},
	}
	for i, cfg := range bad {
		if _, err := NewStream(cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
}

// TestSliceSourceBumpsAllocator replays pre-generated batches and checks
// the allocator is pushed past their IDs so chunking cannot collide — also
// for chunks minted between two pulls, while a batch is being scheduled and
// the later batches' IDs are not yet in hand.
func TestSliceSourceBumpsAllocator(t *testing.T) {
	g := MustNewGenerator(Config{Batches: 3, MeanJobsPerBatch: 5, Seed: 1})
	batches := g.Generate()
	maxID := -1
	used := map[int]bool{}
	for _, b := range batches {
		for _, j := range b.Jobs {
			maxID = max(maxID, j.ID)
			used[j.ID] = true
		}
	}
	src := NewSliceSource(batches)
	ids := job.NewCounter(0)
	n := 0
	for {
		b, ok := src.NextBatch(ids)
		if !ok {
			break
		}
		n += len(b.Jobs)
		if id := ids.NextID(); used[id] {
			t.Fatalf("chunk ID %d minted after batch %d belongs to a workload job", id, b.Index)
		}
	}
	if n == 0 {
		t.Fatalf("slice source yielded no jobs")
	}
	if next := ids.NextID(); next <= maxID {
		t.Fatalf("allocator hands out %d, workload already used up to %d", next, maxID)
	}
	if _, ok := src.NextBatch(ids); ok {
		t.Fatalf("exhausted source yielded another batch")
	}
}

package netsim

import (
	"math"
	"testing"

	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
)

func TestOutageModelValidation(t *testing.T) {
	bad := []OutageModel{
		{MeanTimeBetween: 0, MeanDuration: 10, ThrottleFactor: 0},
		{MeanTimeBetween: 10, MeanDuration: 0, ThrottleFactor: 0},
		{MeanTimeBetween: 10, MeanDuration: 10, ThrottleFactor: -0.1},
		{MeanTimeBetween: 10, MeanDuration: 10, ThrottleFactor: 1},
	}
	for i, m := range bad {
		if m.Validate() == nil {
			t.Fatalf("model %d passed validation: %+v", i, m)
		}
	}
	good := OutageModel{MeanTimeBetween: 600, MeanDuration: 60, ThrottleFactor: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkWithBadOutagePanics(t *testing.T) {
	eng := sim.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid outage model did not panic")
		}
	}()
	NewLink(eng, LinkConfig{
		Profile: ConstantProfile(1000),
		Outages: &OutageModel{},
	}, stats.NewRNG(1))
}

func TestOutageStateTransitions(t *testing.T) {
	rng := stats.NewRNG(1)
	o := newOutageState(OutageModel{MeanTimeBetween: 100, MeanDuration: 10, ThrottleFactor: 0}, rng, 0)
	if o.active {
		t.Fatal("outage starts inactive")
	}
	start := o.nextStart
	o.step(start - 1)
	if o.active {
		t.Fatal("activated early")
	}
	o.step(start)
	if !o.active {
		t.Fatal("did not activate at start")
	}
	end := o.until
	if end <= start {
		t.Fatal("episode has no duration")
	}
	o.step(end)
	if o.active {
		t.Fatal("did not recover at episode end")
	}
	if o.nextStart <= end {
		t.Fatal("next episode not after recovery")
	}
	// Jumping far ahead skips any number of episodes without hanging.
	o.step(1e9)
	if o.factor() != 1 && o.factor() != 0 {
		t.Fatal("factor must be 1 or the throttle value")
	}
}

func TestHardOutageDelaysTransfer(t *testing.T) {
	// Deterministic-ish check: with a hard outage model active a transfer
	// takes strictly longer than on a clean link, and still completes.
	run := func(outages *OutageModel) float64 {
		eng := sim.NewEngine()
		l := NewLink(eng, LinkConfig{
			Profile: ConstantProfile(1000),
			Threads: ThreadModel{PerThread: 1e6, MaxThread: 4},
			Outages: outages,
		}, stats.NewRNG(7))
		var doneAt float64 = -1
		l.Start("x", 100000, 1, func(at float64, tr *Transfer) { doneAt = at })
		eng.RunUntil(1e6)
		return doneAt
	}
	clean := run(nil)
	if math.Abs(clean-100) > 1e-6 {
		t.Fatalf("clean transfer = %v, want 100", clean)
	}
	outaged := run(&OutageModel{MeanTimeBetween: 30, MeanDuration: 20, ThrottleFactor: 0})
	if outaged < 0 {
		t.Fatal("transfer never completed under outages")
	}
	if outaged <= clean {
		t.Fatalf("outages did not slow the transfer: %v vs %v", outaged, clean)
	}
}

func TestThrottleFactorScalesCapacity(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{
		Profile: ConstantProfile(1000),
		Outages: &OutageModel{MeanTimeBetween: 1e12, MeanDuration: 10, ThrottleFactor: 0.25},
	}, stats.NewRNG(1))
	// No episode yet (MTBF enormous): full capacity.
	if l.Capacity() != 1000 {
		t.Fatalf("capacity = %v, want 1000", l.Capacity())
	}
	// Force an episode.
	l.outage.active = true
	l.outage.until = 1e12
	if l.Capacity() != 250 {
		t.Fatalf("throttled capacity = %v, want 250", l.Capacity())
	}
}

func TestOutageLongRunThroughputLoss(t *testing.T) {
	// Over a long horizon, a 50%-duty hard-outage model should roughly
	// halve delivered bytes.
	run := func(outages *OutageModel, seed int64) float64 {
		eng := sim.NewEngine()
		l := NewLink(eng, LinkConfig{
			Profile: ConstantProfile(1000),
			Threads: ThreadModel{PerThread: 1e6, MaxThread: 4},
			Outages: outages,
		}, stats.NewRNG(seed))
		// Saturate the link with back-to-back transfers.
		var feed func(float64, *Transfer)
		feed = func(float64, *Transfer) { l.Start("x", 50000, 1, feed) }
		l.Start("x", 50000, 1, feed)
		eng.RunUntil(200000)
		return l.BytesServed()
	}
	clean := run(nil, 3)
	half := run(&OutageModel{MeanTimeBetween: 500, MeanDuration: 500, ThrottleFactor: 0}, 3)
	ratio := half / clean
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("50%%-duty outage delivered %v of clean throughput, want ≈0.5", ratio)
	}
}

func TestOutageDeterministicPerSeed(t *testing.T) {
	run := func() float64 {
		eng := sim.NewEngine()
		l := NewLink(eng, LinkConfig{
			Profile: ConstantProfile(1000),
			Outages: &OutageModel{MeanTimeBetween: 100, MeanDuration: 50, ThrottleFactor: 0.2},
		}, stats.NewRNG(11))
		var doneAt float64
		l.Start("x", 200000, 8, func(at float64, tr *Transfer) { doneAt = at })
		eng.RunUntil(1e6)
		return doneAt
	}
	if run() != run() {
		t.Fatal("outage schedule not reproducible for a fixed seed")
	}
}

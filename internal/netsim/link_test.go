package netsim

import (
	"math"
	"testing"

	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
)

// testLink builds a jitter-free link with ample thread capacity so transfer
// times are exactly size/capacity.
func testLink(eng *sim.Engine, bw float64) *Link {
	return NewLink(eng, LinkConfig{
		Name:    "test",
		Profile: ConstantProfile(bw),
		Threads: ThreadModel{PerThread: bw, Penalty: 0, MaxThread: 8},
	}, stats.NewRNG(1))
}

func TestSingleTransferExactDuration(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000) // 1000 B/s
	var doneAt float64 = -1
	l.Start("a", 5000, 1, func(at float64, tr *Transfer) {
		doneAt = at
		if !tr.Done() {
			t.Error("transfer not marked done")
		}
	})
	eng.Run()
	if math.Abs(doneAt-5) > 1e-6 {
		t.Fatalf("doneAt = %v, want 5", doneAt)
	}
}

func TestTwoTransfersShareCapacity(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	var aAt, bAt float64
	l.Start("a", 5000, 8, func(at float64, tr *Transfer) { aAt = at })
	l.Start("b", 5000, 8, func(at float64, tr *Transfer) { bAt = at })
	eng.Run()
	// Equal shares: both progress at 500 B/s, finish together at t=10.
	if math.Abs(aAt-10) > 1e-6 || math.Abs(bAt-10) > 1e-6 {
		t.Fatalf("aAt=%v bAt=%v, want both ≈10", aAt, bAt)
	}
}

func TestShortTransferReleasesCapacity(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	var aAt, bAt float64
	l.Start("a", 2000, 8, func(at float64, tr *Transfer) { aAt = at })
	l.Start("b", 6000, 8, func(at float64, tr *Transfer) { bAt = at })
	eng.Run()
	// Shared until a finishes: a moves 2000 at 500 B/s -> t=4. b then has
	// 4000 left at full 1000 B/s -> t=8.
	if math.Abs(aAt-4) > 1e-6 {
		t.Fatalf("aAt = %v, want 4", aAt)
	}
	if math.Abs(bAt-8) > 1e-6 {
		t.Fatalf("bAt = %v, want 8", bAt)
	}
}

func TestThreadLimitCapsRate(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{
		Profile: ConstantProfile(1000),
		Threads: ThreadModel{PerThread: 100, Penalty: 0, MaxThread: 10},
	}, stats.NewRNG(1))
	var doneAt float64
	l.Start("a", 1000, 2, func(at float64, tr *Transfer) { doneAt = at }) // limit 200 B/s
	eng.Run()
	if math.Abs(doneAt-5) > 1e-6 {
		t.Fatalf("doneAt = %v, want 5 (thread-limited)", doneAt)
	}
}

func TestWaterFillingRedistributesSlack(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{
		Profile: ConstantProfile(1000),
		Threads: ThreadModel{PerThread: 100, Penalty: 0, MaxThread: 10},
	}, stats.NewRNG(1))
	var aAt, bAt float64
	// a is capped at 100 B/s (1 thread); b (10 threads, limit 1000) should
	// receive the remaining 900 B/s, not just 500.
	l.Start("a", 1000, 1, func(at float64, tr *Transfer) { aAt = at })
	l.Start("b", 4500, 10, func(at float64, tr *Transfer) { bAt = at })
	eng.Run()
	if math.Abs(bAt-5) > 1e-6 {
		t.Fatalf("bAt = %v, want 5 (900 B/s via water-filling)", bAt)
	}
	if math.Abs(aAt-10) > 1e-6 {
		t.Fatalf("aAt = %v, want 10", aAt)
	}
}

func TestProfileBoundaryChangesRate(t *testing.T) {
	eng := sim.NewEngine()
	// Two 12h slots: 100 B/s then 200 B/s.
	l := NewLink(eng, LinkConfig{
		Profile: NewProfile([]float64{100, 200}),
		Threads: ThreadModel{PerThread: 1e6, Penalty: 0, MaxThread: 4},
	}, stats.NewRNG(1))
	// Start a transfer 100s before the boundary sized to cross it:
	// 100s*100B/s + 50s*200B/s = 20000 bytes.
	start := 12*3600 - 100.0
	var doneAt float64
	eng.ScheduleCall(start, func(float64, any) {
		l.Start("x", 20000, 1, func(at float64, tr *Transfer) { doneAt = at })
	}, nil)
	eng.Run()
	want := 12*3600 + 50.0
	if math.Abs(doneAt-want) > 1e-3 {
		t.Fatalf("doneAt = %v, want %v (rate change at slot boundary)", doneAt, want)
	}
}

func TestChainedTransfersFromCallback(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	var second float64
	l.Start("a", 1000, 1, func(at float64, tr *Transfer) {
		l.Start("b", 2000, 1, func(at2 float64, tr2 *Transfer) { second = at2 })
	})
	eng.Run()
	if math.Abs(second-3) > 1e-6 {
		t.Fatalf("chained completion = %v, want 3", second)
	}
}

func TestJitterChangesCompletionTimes(t *testing.T) {
	run := func(cv float64, seed int64) float64 {
		eng := sim.NewEngine()
		l := NewLink(eng, LinkConfig{
			Profile:        ConstantProfile(1000),
			JitterCV:       cv,
			ResamplePeriod: 10,
			Threads:        ThreadModel{PerThread: 1e6, Penalty: 0, MaxThread: 4},
		}, stats.NewRNG(seed))
		var doneAt float64
		l.Start("x", 100000, 1, func(at float64, tr *Transfer) { doneAt = at })
		eng.RunUntil(100000)
		return doneAt
	}
	base := run(0, 1)
	if math.Abs(base-100) > 1e-6 {
		t.Fatalf("no-jitter duration = %v, want 100", base)
	}
	j1, j2 := run(0.5, 2), run(0.5, 3)
	if j1 == base && j2 == base {
		t.Fatal("jitter had no effect")
	}
	if j1 == j2 {
		t.Fatal("different seeds produced identical jittered durations")
	}
	if j1 <= 0 || j2 <= 0 {
		t.Fatal("jittered transfers never completed")
	}
}

func TestJitterDeterministicPerSeed(t *testing.T) {
	run := func() float64 {
		eng := sim.NewEngine()
		l := NewLink(eng, LinkConfig{
			Profile:        ConstantProfile(1000),
			JitterCV:       0.4,
			ResamplePeriod: 5,
		}, stats.NewRNG(77))
		var doneAt float64
		l.Start("x", 50000, 24, func(at float64, tr *Transfer) { doneAt = at })
		eng.RunUntil(100000)
		return doneAt
	}
	if run() != run() {
		t.Fatal("same seed produced different trajectories")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	l.Start("a", 10000, 8, func(at float64, tr *Transfer) {})
	eng.RunUntil(5) // half-way through [0,10]: the link has served half
	if math.Abs(l.BytesServed()-5000) > 1e-3 {
		t.Fatalf("BytesServed at 5 s = %v, want 5000", l.BytesServed())
	}
	eng.RunUntil(20) // transfer occupies [0,10], idle [10,20] serves nothing
	if math.Abs(l.BytesServed()-10000) > 1e-3 {
		t.Fatalf("BytesServed = %v", l.BytesServed())
	}
}

func TestStartValidation(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size transfer did not panic")
		}
	}()
	l.Start("bad", 0, 1, nil)
}

func TestZeroThreadsClampToOne(t *testing.T) {
	eng := sim.NewEngine()
	l := testLink(eng, 1000)
	done := false
	l.Start("a", 100, 0, func(at float64, tr *Transfer) { done = true })
	eng.Run()
	if !done {
		t.Fatal("transfer with clamped threads never completed")
	}
}

func TestAchievedBW(t *testing.T) {
	tr := &Transfer{Size: 1000, StartT: 5}
	if tr.AchievedBW(15) != 100 {
		t.Fatalf("AchievedBW = %v", tr.AchievedBW(15))
	}
	if tr.AchievedBW(5) != 0 {
		t.Fatal("zero-duration transfer should report 0 bandwidth")
	}
}

// TestManyConcurrentTransfersConservation checks that total bytes served
// equals the sum of transfer sizes under heavy concurrency and jitter.
func TestManyConcurrentTransfersConservation(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, LinkConfig{
		Profile:        DiurnalProfile(2000, 0.5),
		JitterCV:       0.3,
		ResamplePeriod: 30,
		Threads:        DefaultThreadModel(),
	}, stats.NewRNG(5))
	g := stats.NewRNG(6)
	var total int64
	completed := 0
	n := 40
	for i := 0; i < n; i++ {
		size := int64(g.Uniform(1000, 500000))
		total += size
		at := g.Uniform(0, 5000)
		eng.ScheduleCall(at, func(float64, any) {
			l.Start("t", size, 1+g.Intn(8), func(float64, *Transfer) { completed++ })
		}, nil)
	}
	eng.RunUntil(1e7)
	if completed != n {
		t.Fatalf("completed %d/%d transfers", completed, n)
	}
	if math.Abs(l.BytesServed()-float64(total)) > 1 {
		t.Fatalf("BytesServed = %v, want %v", l.BytesServed(), total)
	}
}

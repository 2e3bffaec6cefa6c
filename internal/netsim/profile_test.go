package netsim

import (
	"math"
	"testing"
)

func TestConstantProfile(t *testing.T) {
	p := ConstantProfile(1000)
	for _, tt := range []float64{0, 3600, Day - 1, Day, 5 * Day} {
		if p.MeanAt(tt) != 1000 {
			t.Fatalf("MeanAt(%v) = %v", tt, p.MeanAt(tt))
		}
	}
	if p.Mean() != 1000 {
		t.Fatalf("Mean = %v", p.Mean())
	}
}

func TestNewProfileValidation(t *testing.T) {
	for _, slots := range [][]float64{nil, {}, {100, 0}, {100, -5}, {math.NaN()}, {math.Inf(1)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewProfile(%v) did not panic", slots)
				}
			}()
			NewProfile(slots)
		}()
	}
}

func TestProfileSlotLookup(t *testing.T) {
	p := NewProfile([]float64{10, 20, 30, 40}) // 6h slots
	if p.SlotDur != 6*3600 {
		t.Fatalf("SlotDur = %v", p.SlotDur)
	}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 10}, {6*3600 - 1, 10}, {6 * 3600, 20}, {12 * 3600, 30},
		{23 * 3600, 40}, {Day, 10}, {Day + 7*3600, 20},
	}
	for _, c := range cases {
		if got := p.MeanAt(c.t); got != c.want {
			t.Fatalf("MeanAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestProfileNegativeTime(t *testing.T) {
	p := NewProfile([]float64{10, 20})
	if got := p.MeanAt(-1); got != 20 { // wraps to end of previous day
		t.Fatalf("MeanAt(-1) = %v, want 20", got)
	}
}

func TestProfileNextBoundary(t *testing.T) {
	p := NewProfile([]float64{10, 20, 30, 40})
	if b := p.NextBoundary(0); b != 6*3600 {
		t.Fatalf("NextBoundary(0) = %v", b)
	}
	if b := p.NextBoundary(6 * 3600); b != 12*3600 {
		t.Fatalf("NextBoundary(slot start) = %v", b)
	}
	if b := p.NextBoundary(7 * 3600); b != 12*3600 {
		t.Fatalf("NextBoundary(mid-slot) = %v", b)
	}
}

func TestDiurnalProfileShape(t *testing.T) {
	p := DiurnalProfile(1000, 0.5)
	if len(p.Slots) != 24 {
		t.Fatalf("slots = %d", len(p.Slots))
	}
	if math.Abs(p.Mean()-1000) > 1e-9 {
		t.Fatalf("Mean = %v, want 1000", p.Mean())
	}
	// Peak at 03:00, trough at 15:00.
	if p.Slots[3] <= p.Slots[15] {
		t.Fatalf("expected night peak: %v vs %v", p.Slots[3], p.Slots[15])
	}
	if math.Abs(p.Slots[3]-1500) > 1e-9 || math.Abs(p.Slots[15]-500) > 1e-9 {
		t.Fatalf("amplitude wrong: peak %v trough %v", p.Slots[3], p.Slots[15])
	}
}

func TestDiurnalValidation(t *testing.T) {
	for _, c := range []struct{ mean, amp float64 }{{0, 0.5}, {-1, 0.5}, {100, -0.1}, {100, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DiurnalProfile(%v,%v) did not panic", c.mean, c.amp)
				}
			}()
			DiurnalProfile(c.mean, c.amp)
		}()
	}
}

func TestThreadModelLimit(t *testing.T) {
	tm := ThreadModel{PerThread: 100, Penalty: 0.1, MaxThread: 20}
	if tm.Limit(0) != 0 || tm.Limit(-1) != 0 {
		t.Fatal("non-positive threads should carry nothing")
	}
	if tm.Limit(1) != 100 {
		t.Fatalf("Limit(1) = %v", tm.Limit(1))
	}
	// 2 threads: 2*100*0.9 = 180.
	if tm.Limit(2) != 180 {
		t.Fatalf("Limit(2) = %v", tm.Limit(2))
	}
	// Past MaxThread, clamps.
	if tm.Limit(25) != tm.Limit(20) {
		t.Fatal("MaxThread clamp failed")
	}
	// Penalty can drive the limit to zero but never negative.
	tm2 := ThreadModel{PerThread: 100, Penalty: 0.5, MaxThread: 10}
	if tm2.Limit(10) < 0 {
		t.Fatal("negative limit")
	}
}

func TestThreadModelInteriorOptimum(t *testing.T) {
	tm := ThreadModel{PerThread: 100, Penalty: 0.1, MaxThread: 30}
	// limit(n) = 100n(1-0.1(n-1)) peaks at n ≈ 5.5 -> check 5 or 6 beats
	// neighbors.
	if tm.Limit(5) <= tm.Limit(2) || tm.Limit(6) <= tm.Limit(10) {
		t.Fatalf("no interior optimum: %v %v %v %v",
			tm.Limit(2), tm.Limit(5), tm.Limit(6), tm.Limit(10))
	}
}

func TestTunerConvergesTowardOptimum(t *testing.T) {
	tm := ThreadModel{PerThread: 100, Penalty: 0.1, MaxThread: 30}
	tu := NewTuner(tm, 1)
	tu.RecordHistory()
	// Feed the tuner the model's own throughput as the measurement; it
	// should climb to the peak region (5-6) and oscillate there.
	for i := 0; i < 60; i++ {
		tu.Observe(float64(i), tm.Limit(tu.Threads()))
	}
	if tu.Threads() < 4 || tu.Threads() > 8 {
		t.Fatalf("tuner at %d threads, want near 5-6", tu.Threads())
	}
	if len(tu.History()) != 60 {
		t.Fatalf("history length = %d", len(tu.History()))
	}
}

func TestTunerClamps(t *testing.T) {
	tm := ThreadModel{PerThread: 100, Penalty: 0, MaxThread: 3}
	tu := NewTuner(tm, 10)
	if tu.Threads() != 3 {
		t.Fatalf("initial clamp failed: %d", tu.Threads())
	}
	// Monotonically increasing measurements drive it upward; must not
	// exceed MaxThread.
	for i := 0; i < 10; i++ {
		tu.Observe(float64(i), float64(100+i))
		if tu.Threads() < 1 || tu.Threads() > 3 {
			t.Fatalf("threads out of range: %d", tu.Threads())
		}
	}
	tu2 := NewTuner(tm, 0)
	if tu2.Threads() != 1 {
		t.Fatalf("zero initial should clamp to 1, got %d", tu2.Threads())
	}
}

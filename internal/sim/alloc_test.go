package sim

import "testing"

// The typed-callback paths recycle event nodes through the engine's free
// list, so the steady-state cost of scheduling and firing an event is zero
// allocations. These tests pin that budget; a regression here silently
// multiplies by every event of every run.

func TestCallAfterStepAllocs(t *testing.T) {
	e := NewEngine()
	cb := func(now float64, arg any) {}
	// Warm the pool.
	e.CallAfter(1, cb, nil)
	e.Step()
	allocs := testing.AllocsPerRun(100, func() {
		e.CallAfter(1, cb, nil)
		if !e.Step() {
			t.Fatal("no event to step")
		}
	})
	if allocs != 0 {
		t.Errorf("pooled CallAfter+Step allocates %v/op, want 0", allocs)
	}
}

func TestTimerCancelAllocs(t *testing.T) {
	e := NewEngine()
	cb := func(now float64, arg any) {}
	tm := e.TimerAfter(1, cb, nil)
	e.CancelTimer(tm)
	e.CallAfter(1, cb, nil)
	e.Step() // drain so the canceled node returns to the pool
	allocs := testing.AllocsPerRun(100, func() {
		tm := e.TimerAfter(1, cb, nil)
		e.CancelTimer(tm)
		e.CallAfter(1, cb, nil)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("pooled TimerAfter+Cancel allocates %v/op, want 0", allocs)
	}
}

func TestTickerAllocs(t *testing.T) {
	e := NewEngine()
	n := 0
	tk := NewTicker(e, 1, func(now float64) { n++ })
	defer tk.Stop()
	e.Step() // first tick warms the pool
	allocs := testing.AllocsPerRun(100, func() {
		if !e.Step() {
			t.Fatal("ticker stopped rearming")
		}
	})
	if allocs != 0 {
		t.Errorf("running ticker allocates %v/tick, want 0", allocs)
	}
}

func TestResetReuseAllocs(t *testing.T) {
	// Arena reuse rests on Reset returning every pooled node to the free
	// list and keeping the queue's backing array: a full
	// Reset→schedule→drain cycle on a warm engine must allocate nothing.
	e := NewEngine()
	cb := func(now float64, arg any) {}
	cycle := func() {
		e.Reset()
		for i := 0; i < 64; i++ {
			e.CallAfter(float64(i), cb, nil)
		}
		for e.Step() {
		}
	}
	cycle() // warm: grow queue and free list to steady-state size
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Errorf("warm Reset+schedule+drain cycle allocates %v/op, want 0", allocs)
	}
}

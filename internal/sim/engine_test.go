package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", e.Pending())
	}
}

func TestScheduleAndRunAdvancesClock(t *testing.T) {
	e := NewEngine()
	var fired []float64
	record := func(now float64, _ any) { fired = append(fired, now) }
	e.ScheduleCall(5, record, nil)
	e.ScheduleCall(2, record, nil)
	e.Run()
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 5 {
		t.Fatalf("fired = %v, want [2 5]", fired)
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %v, want 5", e.Now())
	}
}

func TestSameTimeEventsFireInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	record := func(_ float64, arg any) { order = append(order, arg.(int)) }
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			e.ScheduleCall(1, record, i)
		} else {
			e.ScheduleTimer(1, record, i)
		}
	}
	e.Run()
	if len(order) != 10 {
		t.Fatalf("fired %d events, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal times)", i, v, i)
		}
	}
}

func TestScheduleAfter(t *testing.T) {
	e := NewEngine()
	var at, timerAt float64 = -1, -1
	e.ScheduleCall(3, func(float64, any) {
		e.CallAfter(4, func(now float64, _ any) { at = now }, nil)
		e.TimerAfter(5, func(now float64, _ any) { timerAt = now }, nil)
	}, nil)
	e.Run()
	if at != 7 || timerAt != 8 {
		t.Fatalf("nested CallAfter fired at %v and TimerAfter at %v, want 7 and 8", at, timerAt)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	noop := func(float64, any) {}
	e.ScheduleCall(10, noop, nil)
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleCall(5, noop, nil)
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	e.ScheduleTimer(math.NaN(), func(float64, any) {}, nil)
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := e.ScheduleTimer(1, func(float64, any) { fired = true }, nil)
	if !tm.Active() {
		t.Fatal("Active() = false before the timer fired")
	}
	e.CancelTimer(tm)
	if tm.Active() {
		t.Fatal("Active() = true after CancelTimer")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

// TestCancelIsIdempotent cancels a timer twice, cancels the zero Timer, and
// cancels a stale timer whose node has since been recycled for another
// event: every repeat is a no-op and the recycled node's new event fires.
func TestCancelIsIdempotent(t *testing.T) {
	e := NewEngine()
	noop := func(float64, any) {}
	tm := e.ScheduleTimer(1, noop, nil)
	e.CancelTimer(tm)
	e.CancelTimer(tm) // must not panic or touch the recycled node
	e.CancelTimer(Timer{})
	e.Run()

	fired := e.ScheduleTimer(2, noop, nil)
	e.Run()
	reused := false
	next := e.ScheduleTimer(3, func(float64, any) { reused = true }, nil)
	if next.ev != fired.ev {
		t.Fatal("the free list did not hand the fired node out again")
	}
	e.CancelTimer(fired) // stale: the node now carries next
	e.CancelTimer(tm)
	if !next.Active() {
		t.Fatal("a stale cancel deactivated the node's new event")
	}
	e.Run()
	if !reused {
		t.Fatal("a stale cancel removed the node's new event")
	}
}

func TestCancelFromWithinEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	var tm Timer
	e.ScheduleCall(1, func(float64, any) { e.CancelTimer(tm) }, nil)
	tm = e.ScheduleTimer(2, func(float64, any) { fired = true }, nil)
	e.Run()
	if fired {
		t.Fatal("event cancelled by earlier event still fired")
	}
}

func TestRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine()
	var fired []float64
	record := func(now float64, _ any) { fired = append(fired, now) }
	for _, at := range []float64{1, 2, 3, 4, 5} {
		e.ScheduleCall(at, record, nil)
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("fired %d events after second RunUntil, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10 (clock advances even with no event)", e.Now())
	}
}

func TestRunUntilIncludesEventsAtBoundary(t *testing.T) {
	e := NewEngine()
	fired := false
	e.ScheduleCall(3, func(float64, any) { fired = true }, nil)
	e.RunUntil(3)
	if !fired {
		t.Fatal("event at the RunUntil boundary did not fire")
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleCall(float64(i), func(float64, any) {
			count++
			if count == 4 {
				e.Stop()
			}
		}, nil)
	}
	e.Run()
	if count != 4 {
		t.Fatalf("count = %d after Stop, want 4", count)
	}
	// Run can be resumed.
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d after resume, want 10", count)
	}
}

func TestNextEventTime(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextEventTime(); ok {
		t.Fatal("NextEventTime reported an event on an empty engine")
	}
	noop := func(float64, any) {}
	tm := e.ScheduleTimer(7, noop, nil)
	e.ScheduleCall(9, noop, nil)
	if at, ok := e.NextEventTime(); !ok || at != 7 {
		t.Fatalf("NextEventTime = %v,%v want 7,true", at, ok)
	}
	e.CancelTimer(tm)
	if at, ok := e.NextEventTime(); !ok || at != 9 {
		t.Fatalf("NextEventTime after cancel = %v,%v want 9,true", at, ok)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.ScheduleCall(float64(i), func(float64, any) {}, nil)
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", e.Fired())
	}
}

// TestRandomizedOrdering drives the engine with a random schedule and checks
// that callbacks observe a monotonically non-decreasing clock in timestamp
// order. This is the core invariant of the simulator.
func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		n := 200
		want := make([]float64, n)
		var got []float64
		record := func(now float64, _ any) { got = append(got, now) }
		for i := 0; i < n; i++ {
			at := math.Floor(rng.Float64()*100) / 4 // duplicates likely
			want[i] = at
			e.ScheduleCall(at, record, nil)
		}
		sort.Float64s(want)
		e.Run()
		if len(got) != n {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: event %d fired at %v, want %v", trial, i, got[i], want[i])
			}
			if i > 0 && got[i] < got[i-1] {
				t.Fatalf("trial %d: clock went backwards: %v after %v", trial, got[i], got[i-1])
			}
		}
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine()
	var ticks []float64
	tk := NewTicker(e, 2, func(now float64) {
		ticks = append(ticks, now)
		if now >= 10 {
			tk := now // silence shadow warning; placeholder
			_ = tk
		}
	})
	e.RunUntil(9)
	tk.Stop()
	want := []float64{2, 4, 6, 8}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks[%d] = %v, want %v", i, ticks[i], want[i])
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = NewTicker(e, 1, func(now float64) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 (ticker stopped from its own callback)", count)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero period did not panic")
		}
	}()
	NewTicker(e, 0, func(float64) {})
}

func TestTickerStopIdempotent(t *testing.T) {
	e := NewEngine()
	tk := NewTicker(e, 1, func(float64) {})
	tk.Stop()
	tk.Stop()
	e.Run()
}

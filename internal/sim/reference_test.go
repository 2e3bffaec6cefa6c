package sim

import (
	"math/rand"
	"testing"
)

// firingLog drives one engine through a randomized schedule/cancel script
// and returns the (time, tag) sequence of fired events.
type firing struct {
	at  float64
	tag int
}

func driveScript(e *Engine, seed int64) []firing {
	rng := rand.New(rand.NewSource(seed))
	var log []firing
	record := func(now float64, arg any) {
		log = append(log, firing{at: now, tag: arg.(int)})
	}
	tag := 0
	var timers []Timer

	// An initial wave of pooled events.
	for i := 0; i < 40; i++ {
		e.ScheduleCall(rng.Float64()*50, record, tag)
		tag++
	}

	// A self-rescheduling ticker-like callback to exercise in-flight
	// scheduling, plus random timers and cancels.
	var chain Callback
	chain = func(now float64, arg any) {
		n := arg.(int)
		log = append(log, firing{at: now, tag: -n})
		if n < 30 {
			e.CallAfter(1+rng.Float64()*3, chain, n+1)
		}
		if rng.Intn(3) == 0 {
			t := e.TimerAfter(rng.Float64()*10, record, tag)
			tag++
			timers = append(timers, t)
		}
		if len(timers) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(timers))
			e.CancelTimer(timers[i])
			timers = append(timers[:i], timers[i+1:]...)
		}
	}
	e.CallAfter(0.5, chain, 1)

	// Timers scheduled up front, every third cancelled before the run.
	var eager []Timer
	for i := 0; i < 25; i++ {
		eager = append(eager, e.ScheduleTimer(rng.Float64()*60, record, tag))
		tag++
	}
	for i := 0; i < len(eager); i += 3 {
		e.CancelTimer(eager[i])
	}

	e.Run()
	return log
}

// TestReferenceMatchesOptimized pins the central reference-mode guarantee:
// a heap-backed engine and a linear-scan reference engine fire the exact
// same events at the exact same times in the exact same order, including
// under an initial event wave, pooled timers, cancellations, and events
// scheduled from inside callbacks.
func TestReferenceMatchesOptimized(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		fast := driveScript(NewEngine(), seed)
		ref := driveScript(NewReference(), seed)
		if len(fast) != len(ref) {
			t.Fatalf("seed %d: fired %d events optimized vs %d reference", seed, len(fast), len(ref))
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("seed %d: firing %d diverged: optimized %+v, reference %+v",
					seed, i, fast[i], ref[i])
			}
		}
	}
}

// TestReferenceNeverPools verifies the reference engine allocates fresh
// nodes: a node retired by firing must not be handed out again, so a Timer
// held across many schedule cycles can never alias a recycled node.
func TestReferenceNeverPools(t *testing.T) {
	e := NewReference()
	if !e.Reference() {
		t.Fatal("Reference() = false on a reference engine")
	}
	noop := func(now float64, arg any) {}
	tm := e.TimerAfter(1, noop, nil)
	first := tm.ev
	e.Run()
	for i := 0; i < 10; i++ {
		e.CallAfter(1, noop, nil)
		e.Run()
	}
	if len(e.free) != 0 {
		t.Fatalf("reference engine kept %d nodes on the free list", len(e.free))
	}
	// The retired node's generation advanced exactly once (its own firing),
	// never by reuse.
	if first.gen != tm.gen+1 {
		t.Fatalf("retired node generation = %d, want %d", first.gen, tm.gen+1)
	}
	if tm.Active() {
		t.Fatal("stale timer still reports active")
	}
	e.CancelTimer(tm) // must be a safe no-op
}

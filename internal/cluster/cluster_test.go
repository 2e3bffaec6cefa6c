package cluster

import (
	"math"
	"testing"

	"cloudburst/internal/sim"
)

func TestSingleMachineFCFS(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 1)
	var done []float64
	for i := 0; i < 3; i++ {
		c.Submit(&Task{StdSeconds: 10, OnDone: func(at float64, tk *Task, m *Machine) {
			done = append(done, at)
		}})
	}
	eng.Run()
	want := []float64{10, 20, 30}
	if len(done) != len(want) {
		t.Fatalf("done = %v, want %v", done, want)
	}
	for i := range want {
		if math.Abs(done[i]-want[i]) > 1e-9 {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
}

func TestMultiMachineParallelism(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 4)
	count := 0
	for i := 0; i < 8; i++ {
		c.Submit(&Task{StdSeconds: 10, OnDone: func(at float64, tk *Task, m *Machine) { count++ }})
	}
	eng.Run()
	if eng.Now() != 20 {
		t.Fatalf("8 jobs on 4 machines should take 20s, took %v", eng.Now())
	}
	if count != 8 {
		t.Fatalf("count = %d", count)
	}
}

func TestHeterogeneousMachinesFCFSOrder(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "mix", 1)
	// Machine 1 joins at t=3 and the tasks differ in length, so the two
	// machines free up at unrelated times.
	eng.ScheduleCall(3, func(float64, any) { c.AddMachine() }, nil)
	var starts []int
	var at []float64
	var on []int
	for i, w := range []float64{8, 2, 5, 1, 4, 3} {
		i := i
		c.Submit(&Task{StdSeconds: w, OnStart: func(a float64, tk *Task, m *Machine) {
			starts = append(starts, i)
			at = append(at, a)
			on = append(on, m.ID)
		}})
	}
	eng.Run()
	// Tasks must start in submission order whichever machine frees first.
	wantAt := []float64{0, 3, 5, 8, 9, 10}
	wantOn := []int{0, 1, 1, 0, 0, 1}
	if len(starts) != len(wantAt) {
		t.Fatalf("starts = %v, want 6", starts)
	}
	for i := range starts {
		if starts[i] != i || math.Abs(at[i]-wantAt[i]) > 1e-9 || on[i] != wantOn[i] {
			t.Fatalf("starts %v at %v on %v, want in order at %v on %v", starts, at, on, wantAt, wantOn)
		}
	}
}

func TestOnStartAndTimestamps(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 1)
	var startedAt, enqueuedAt float64 = -1, -1
	t1 := &Task{StdSeconds: 5}
	t2 := &Task{StdSeconds: 5, OnStart: func(at float64, tk *Task, m *Machine) {
		startedAt = at
		enqueuedAt = tk.EnqueuedAt
	}}
	c.Submit(t1)
	c.Submit(t2)
	eng.Run()
	if startedAt != 5 || enqueuedAt != 0 {
		t.Fatalf("startedAt=%v enqueuedAt=%v", startedAt, enqueuedAt)
	}
}

func TestRemainingStdSeconds(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ec", 1)
	tk := &Task{StdSeconds: 10}
	blocker := &Task{StdSeconds: 4}
	c.Submit(blocker)
	c.Submit(tk)
	if tk.RemainingStdSeconds(eng.Now()) != 10 {
		t.Fatal("queued task should report full work")
	}
	eng.RunUntil(6) // blocker runs [0,4]; tk started at 4 and has executed 2 std-s
	if got := tk.RemainingStdSeconds(6); math.Abs(got-8) > 1e-9 {
		t.Fatalf("remaining = %v, want 8", got)
	}
	eng.Run()
	if tk.RemainingStdSeconds(eng.Now()) != 0 || !tk.Done() {
		t.Fatal("finished task should report zero remaining")
	}
}

func TestBacklogStdSeconds(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 1)
	c.Submit(&Task{StdSeconds: 10})
	c.Submit(&Task{StdSeconds: 7})
	if got := c.BacklogStdSeconds(); math.Abs(got-17) > 1e-9 {
		t.Fatalf("backlog = %v, want 17", got)
	}
	eng.RunUntil(4)
	if got := c.BacklogStdSeconds(); math.Abs(got-13) > 1e-9 {
		t.Fatalf("backlog after 4s = %v, want 13", got)
	}
	eng.Run()
	if c.BacklogStdSeconds() != 0 {
		t.Fatal("backlog after drain should be 0")
	}
}

func TestIdleAndOnIdle(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 2)
	if !c.Idle() {
		t.Fatal("new cluster should be idle")
	}
	idles := 0
	c.OnIdle = func(*Cluster) { idles++ }
	c.Submit(&Task{StdSeconds: 5})
	c.Submit(&Task{StdSeconds: 10})
	if c.Idle() {
		t.Fatal("cluster with running tasks is not idle")
	}
	eng.Run()
	if idles != 1 {
		t.Fatalf("OnIdle fired %d times, want 1", idles)
	}
}

func TestWithdraw(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 1)
	running := &Task{StdSeconds: 10}
	queued := &Task{StdSeconds: 10}
	c.Submit(running)
	c.Submit(queued)
	if !c.Withdraw(queued) {
		t.Fatal("queued task should be withdrawable")
	}
	if c.Withdraw(running) {
		t.Fatal("running task must not be withdrawable")
	}
	if c.Withdraw(queued) {
		t.Fatal("double withdraw should fail")
	}
	ran := 0
	c.OnTaskEnd = func(float64, *Task, *Machine) { ran++ }
	eng.Run()
	if ran != 1 || queued.Done() {
		t.Fatalf("%d tasks ran, want 1 (withdrawn task never ran)", ran)
	}
}

func TestQueuedTasksSnapshot(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 1)
	c.Submit(&Task{StdSeconds: 10})
	a := &Task{StdSeconds: 1}
	b := &Task{StdSeconds: 2}
	c.Submit(a)
	c.Submit(b)
	snap := c.QueuedTasks()
	if len(snap) != 2 || snap[0] != a || snap[1] != b {
		t.Fatalf("snapshot = %v", snap)
	}
	snap[0] = nil // mutating the snapshot must not affect the queue
	if c.QueueLength() != 2 {
		t.Fatal("snapshot mutation leaked")
	}
	eng.Run()
}

func TestUtilizationFullAndPartial(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 2)
	// Machine 0 busy [0,10], machine 1 busy [0,4]: util at t=10 = 14/20.
	c.Submit(&Task{StdSeconds: 10})
	c.Submit(&Task{StdSeconds: 4})
	eng.Run()
	if got := c.UtilizationAt(10); math.Abs(got-0.7) > 1e-9 {
		t.Fatalf("UtilizationAt(10) = %v, want 0.7", got)
	}
	if c.UtilizationAt(0) != 0 {
		t.Fatal("zero-window utilization should be 0")
	}
}

func TestUtilizationMidRun(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ic", 1)
	c.Submit(&Task{StdSeconds: 100})
	eng.RunUntil(50)
	if got := c.UtilizationAt(50); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("mid-run utilization = %v, want 1.0 (running task counts)", got)
	}
}

func TestValidationPanics(t *testing.T) {
	eng := sim.NewEngine()
	for _, f := range []func(){
		func() { New(eng, "x", 0) },
		func() { New(eng, "x", -1) },
		func() { New(eng, "x", 1).Submit(&Task{StdSeconds: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config did not panic")
				}
			}()
			f()
		}()
	}
}

// Every machine runs at standard speed, so a fleet's total speed is the
// number of its busy machines: two running tasks work off two std-s of
// backlog per second.
func TestRunningTasksAndTotalSpeed(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ec", 3)
	c.Submit(&Task{StdSeconds: 100})
	c.Submit(&Task{StdSeconds: 100})
	if c.RunningTasks() != 2 {
		t.Fatalf("RunningTasks = %d", c.RunningTasks())
	}
	eng.RunUntil(1)
	if c.Size() != 3 || len(c.Machines()) != 3 {
		t.Fatal("Size/Machines wrong")
	}
	if got := c.BacklogStdSeconds(); math.Abs(got-198) > 1e-9 {
		t.Fatalf("backlog after 1 s = %v, want 198", got)
	}
}

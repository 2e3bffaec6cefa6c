package cluster

import (
	"math"
	"testing"

	"cloudburst/internal/sim"
)

func TestAddMachineDispatchesQueuedWork(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 1, 1.0)
	var doneAt [2]float64
	c.Submit(&Task{StdSeconds: 10, OnDone: func(at float64, tk *Task, m *Machine) { doneAt[0] = at }})
	c.Submit(&Task{StdSeconds: 10, OnDone: func(at float64, tk *Task, m *Machine) { doneAt[1] = at }})
	eng.ScheduleCall(2, func(float64, any) { c.AddMachine(1.0) }, nil)
	eng.Run()
	// Second task starts at t=2 on the new machine instead of t=10.
	if math.Abs(doneAt[1]-12) > 1e-9 {
		t.Fatalf("second task done at %v, want 12", doneAt[1])
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d", c.Size())
	}
}

func TestAddMachineValidation(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 1, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("zero-speed machine did not panic")
		}
	}()
	c.AddMachine(0)
}

func TestDrainIdleMachineRetiresImmediately(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 2, 1.0)
	m := c.Machines()[1]
	if !c.Drain(m) {
		t.Fatal("drain of active machine failed")
	}
	if c.Size() != 1 {
		t.Fatalf("Size after drain = %d", c.Size())
	}
	if c.Drain(m) {
		t.Fatal("draining a retired machine should fail")
	}
}

func TestDrainBusyMachineFinishesItsTask(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 1, 1.0)
	var doneAt float64
	c.Submit(&Task{StdSeconds: 10, OnDone: func(at float64, tk *Task, m *Machine) { doneAt = at }})
	m := c.Machines()[0]
	eng.ScheduleCall(3, func(float64, any) {
		c.Drain(m)
		if c.Size() != 1 {
			t.Error("busy machine retired before finishing")
		}
	}, nil)
	eng.Run()
	if doneAt != 10 {
		t.Fatalf("task done at %v, want 10", doneAt)
	}
	if c.Size() != 0 {
		t.Fatalf("Size after task end = %d, want 0 (drained)", c.Size())
	}
}

func TestDrainingMachineTakesNoNewWork(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 2, 1.0)
	var where []int
	mk := func() *Task {
		return &Task{StdSeconds: 5, OnDone: func(at float64, tk *Task, m *Machine) {
			where = append(where, m.ID)
		}}
	}
	c.Submit(mk())
	c.Submit(mk())
	// Drain machine 1 mid-task; submit another task at t=6 — it must run
	// on machine 0 only.
	eng.ScheduleCall(1, func(float64, any) { c.Drain(c.Machines()[1]) }, nil)
	eng.ScheduleCall(6, func(float64, any) { c.Submit(mk()) }, nil)
	eng.Run()
	if len(where) != 3 {
		t.Fatalf("completed %d tasks", len(where))
	}
	if where[2] != 0 {
		t.Fatalf("third task ran on drained machine %d", where[2])
	}
}

func TestDrainOneIdleRespectsMinimum(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 3, 1.0)
	if !c.DrainOneIdle(2) {
		t.Fatal("should retire one of three idle machines")
	}
	if !c.DrainOneIdle(2) == false && c.Size() != 2 {
		t.Fatal("should not go below minimum")
	}
	if c.DrainOneIdle(2) {
		t.Fatal("retired below minimum")
	}
	// All machines busy: nothing to drain.
	c.Submit(&Task{StdSeconds: 100})
	c.Submit(&Task{StdSeconds: 100})
	if c.DrainOneIdle(0) {
		t.Fatal("drained a busy machine")
	}
	eng.RunUntil(1)
}

func TestMachineSecondsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 1, 1.0) // machine 0 from t=0
	var added *Machine
	eng.ScheduleCall(10, func(float64, any) { added = c.AddMachine(1.0) }, nil)
	eng.ScheduleCall(30, func(float64, any) { c.Drain(added) }, nil) // idle: retires at 30
	eng.ScheduleCall(50, func(float64, any) {}, nil)
	eng.Run()
	// machine 0: [0,50] = 50; added: [10,30] = 20.
	if got := c.MachineSeconds(50); math.Abs(got-70) > 1e-9 {
		t.Fatalf("MachineSeconds = %v, want 70", got)
	}
	// Evaluated mid-way through the rental.
	if got := c.MachineSeconds(20); math.Abs(got-30) > 1e-9 {
		t.Fatalf("MachineSeconds(20) = %v, want 30", got)
	}
}

func TestUtilizationRented(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 1, 1.0)
	c.Submit(&Task{StdSeconds: 20})
	var m2 *Machine
	eng.ScheduleCall(0, func(float64, any) { m2 = c.AddMachine(1.0) }, nil)
	c.Submit(&Task{StdSeconds: 10})
	eng.ScheduleCall(25, func(float64, any) { c.Drain(m2) }, nil)
	eng.ScheduleCall(40, func(float64, any) {}, nil)
	eng.Run()
	// Busy: m0 20s + m2 10s = 30. Rented: m0 [0,40]=40, m2 [0,25]=25 → 65.
	got := c.UtilizationRented(40)
	if math.Abs(got-30.0/65.0) > 1e-9 {
		t.Fatalf("UtilizationRented = %v, want %v", got, 30.0/65.0)
	}
	if c.UtilizationRented(0) != 0 {
		t.Fatal("zero-window rented utilization should be 0")
	}
}

func TestPeakMachines(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 2, 1.0)
	if c.PeakMachines() != 2 {
		t.Fatalf("initial peak = %d", c.PeakMachines())
	}
	m := c.AddMachine(1.0)
	c.AddMachine(1.0)
	if c.PeakMachines() != 4 {
		t.Fatalf("peak after adds = %d", c.PeakMachines())
	}
	c.Drain(m)
	if c.PeakMachines() != 4 {
		t.Fatalf("peak must not shrink on retire: %d", c.PeakMachines())
	}
	eng.Run()
}

func TestRetiredMachineBusyTimeCounted(t *testing.T) {
	eng := sim.NewEngine()
	c := Uniform(eng, "ec", 1, 1.0)
	c.Submit(&Task{StdSeconds: 10})
	m := c.Machines()[0]
	eng.ScheduleCall(5, func(float64, any) { c.Drain(m) }, nil) // retires at t=10 when task ends
	eng.ScheduleCall(20, func(float64, any) {}, nil)
	eng.Run()
	// Rented [0,10]=10, busy 10 → rented utilization 1 up to t=10 and
	// 10/10 even at t=20 (no rental after retirement).
	if got := c.UtilizationRented(20); math.Abs(got-1) > 1e-9 {
		t.Fatalf("UtilizationRented = %v, want 1", got)
	}
}

package cluster

import (
	"math"
	"testing"

	"cloudburst/internal/sim"
)

func TestAddMachineDispatchesQueuedWork(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ec", 1)
	var doneAt [2]float64
	c.Submit(&Task{StdSeconds: 10, OnDone: func(at float64, tk *Task, m *Machine) { doneAt[0] = at }})
	c.Submit(&Task{StdSeconds: 10, OnDone: func(at float64, tk *Task, m *Machine) { doneAt[1] = at }})
	eng.ScheduleCall(2, func(float64, any) { c.AddMachine() }, nil)
	eng.Run()
	// Second task starts at t=2 on the new machine instead of t=10.
	if math.Abs(doneAt[1]-12) > 1e-9 {
		t.Fatalf("second task done at %v, want 12", doneAt[1])
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d", c.Size())
	}
}

func TestDrainIdleMachineRetiresImmediately(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ec", 2)
	c.Submit(&Task{StdSeconds: 10}) // machine 0 busy
	m := c.DrainIdleMachine(0)
	if m == nil || m.ID != 1 {
		t.Fatalf("drained %+v, want idle machine 1", m)
	}
	if c.Size() != 1 || c.Machines()[0].ID != 0 {
		t.Fatalf("fleet after drain: size %d", c.Size())
	}
	eng.Run()
}

func TestDrainOneIdleRespectsMinimum(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ec", 3)
	if c.DrainIdleMachine(2) == nil {
		t.Fatal("should retire one of three idle machines")
	}
	if c.Size() != 2 {
		t.Fatalf("Size = %d, want 2", c.Size())
	}
	if c.DrainIdleMachine(2) != nil {
		t.Fatal("retired below minimum")
	}
	// All machines busy: nothing to drain.
	c.Submit(&Task{StdSeconds: 100})
	c.Submit(&Task{StdSeconds: 100})
	if c.DrainIdleMachine(0) != nil {
		t.Fatal("drained a busy machine")
	}
	eng.RunUntil(1)
}

func TestMachineSecondsAccounting(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ec", 1) // machine 0 from t=0
	eng.ScheduleCall(10, func(float64, any) { c.AddMachine() }, nil)
	eng.ScheduleCall(30, func(float64, any) { c.DrainIdleMachine(0) }, nil) // machine 0 retires at 30
	eng.ScheduleCall(50, func(float64, any) {}, nil)
	eng.Run()
	// machine 0: [0,30] = 30; machine 1: [10,50] = 40.
	if got := c.MachineSeconds(50); math.Abs(got-70) > 1e-9 {
		t.Fatalf("MachineSeconds = %v, want 70", got)
	}
	// Evaluated mid-way through the rental.
	if got := c.MachineSeconds(20); math.Abs(got-30) > 1e-9 {
		t.Fatalf("MachineSeconds(20) = %v, want 30", got)
	}
	if m := c.Machines()[0]; m.ID != 1 || m.AddedAt() != 10 {
		t.Fatalf("remaining machine %d added at %v, want 1 at 10", m.ID, m.AddedAt())
	}
}

func TestUtilizationRented(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ec", 1)
	c.Submit(&Task{StdSeconds: 20})
	eng.ScheduleCall(0, func(float64, any) { c.AddMachine() }, nil)
	c.Submit(&Task{StdSeconds: 10})
	eng.ScheduleCall(25, func(float64, any) { c.DrainIdleMachine(0) }, nil) // machine 0
	eng.ScheduleCall(40, func(float64, any) {}, nil)
	eng.Run()
	// Busy: m0 20s + m1 10s = 30. Rented: m0 [0,25]=25, m1 [0,40]=40 → 65.
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
	c := New(eng, "ec", 2)
	if c.PeakMachines() != 2 {
		t.Fatalf("initial peak = %d", c.PeakMachines())
	}
	c.AddMachine()
	c.AddMachine()
	if c.PeakMachines() != 4 {
		t.Fatalf("peak after adds = %d", c.PeakMachines())
	}
	c.DrainIdleMachine(0)
	if c.PeakMachines() != 4 {
		t.Fatalf("peak must not shrink on retire: %d", c.PeakMachines())
	}
	eng.Run()
}

func TestRetiredMachineBusyTimeCounted(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "ec", 1)
	c.Submit(&Task{StdSeconds: 10})
	eng.ScheduleCall(5, func(float64, any) {
		if c.DrainIdleMachine(0) != nil {
			t.Error("drained the machine mid-task")
		}
	}, nil)
	eng.ScheduleCall(12, func(float64, any) { c.DrainIdleMachine(0) }, nil)
	eng.ScheduleCall(20, func(float64, any) {}, nil)
	eng.Run()
	// Rented [0,12]=12, busy 10: the retired machine keeps its busy time
	// and rents nothing after retirement.
	if got := c.UtilizationRented(20); math.Abs(got-10.0/12.0) > 1e-9 {
		t.Fatalf("UtilizationRented = %v, want %v", got, 10.0/12.0)
	}
}

// Package netsim simulates the inter-cloud network path: a shared link with
// time-of-day-dependent capacity and sporadic jitter, multi-threaded
// transfers with diminishing returns, periodic 1 MB probes feeding a learned
// bandwidth predictor (per-slot EWMA), and FIFO transfer queues including
// the size-interval (small/medium/large) upload arrangement of Algorithm 3.
//
// Everything in the package runs on the discrete-event engine; bandwidth is
// expressed in bytes/second and sizes in bytes.
package netsim

import (
	"fmt"
	"math"
)

// Day is the number of seconds in a simulated day.
const Day = 24 * 3600.0

// Profile is the ground-truth mean bandwidth of the path as a function of
// time of day, held piecewise-constant over equal slots that repeat daily.
// It models the paper's Fig. 4(a): capacity depends on the hour because of
// last-hop contention, throttling, and provider behaviour.
type Profile struct {
	Slots   []float64 // mean bandwidth per slot, bytes/sec
	SlotDur float64   // slot duration, seconds
}

// NewProfile builds a profile from explicit per-slot means covering one
// day. It panics unless the slots exactly tile 24 h with positive means.
func NewProfile(slots []float64) *Profile {
	if len(slots) == 0 {
		panic("netsim: profile needs at least one slot")
	}
	for i, s := range slots {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			panic(fmt.Sprintf("netsim: slot %d bandwidth %v invalid", i, s))
		}
	}
	return &Profile{Slots: append([]float64(nil), slots...), SlotDur: Day / float64(len(slots))}
}

// ConstantProfile returns a flat profile at the given bandwidth.
func ConstantProfile(bw float64) *Profile {
	return NewProfile([]float64{bw})
}

// DiurnalProfile returns a 24-slot profile with a sinusoidal day shape:
// capacity peaks at night (03:00) and bottoms out during business hours
// (15:00), with the given mean and relative amplitude in [0,1).
func DiurnalProfile(mean, amplitude float64) *Profile {
	if mean <= 0 {
		panic("netsim: diurnal mean must be positive")
	}
	if amplitude < 0 || amplitude >= 1 {
		panic("netsim: diurnal amplitude must be in [0,1)")
	}
	slots := make([]float64, 24)
	for h := 0; h < 24; h++ {
		phase := 2 * math.Pi * (float64(h) - 3) / 24
		slots[h] = mean * (1 + amplitude*math.Cos(phase))
	}
	return NewProfile(slots)
}

// SlotIndex returns the slot covering virtual time t (wrapping daily).
func (p *Profile) SlotIndex(t float64) int {
	if t < 0 {
		t = math.Mod(t, Day) + Day
	}
	i := int(math.Mod(t, Day) / p.SlotDur)
	if i >= len(p.Slots) {
		i = len(p.Slots) - 1
	}
	return i
}

// MeanAt returns the profile's mean bandwidth at time t.
func (p *Profile) MeanAt(t float64) float64 {
	return p.Slots[p.SlotIndex(t)]
}

// NextBoundary returns the first slot boundary strictly after t.
func (p *Profile) NextBoundary(t float64) float64 {
	n := math.Floor(t/p.SlotDur) + 1
	return n * p.SlotDur
}

// Mean returns the time-average bandwidth over the day.
func (p *Profile) Mean() float64 {
	var s float64
	for _, v := range p.Slots {
		s += v
	}
	return s / float64(len(p.Slots))
}
